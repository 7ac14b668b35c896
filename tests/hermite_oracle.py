"""Polynomial definitions that only the tests use.

Conversion from the power basis to the basis of probabilists' Hermite
polynomials (the inverse of ``hermite.from_hermite``), the Gaussian product
moment, the zero test and the scaled argument.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from pwtraffic.hermite import (
    Polynomial,
    Rational,
    _frac,
    _hermite_power_coeffs,
    _trim,
    check_degree,
    expect_value,
)


def _power_to_hermite(power: Sequence[Fraction]) -> tuple[Fraction, ...]:
    # Back-substitution: g_n is monic, so the conversion matrix is unitriangular.
    work = list(power)
    herm = [Fraction(0)] * len(work)
    for n in range(len(work) - 1, -1, -1):
        c = work[n]
        if c == 0:
            continue
        herm[n] = c
        for k, g in enumerate(_hermite_power_coeffs(n)):
            work[k] -= c * g
    return _trim(herm)


def hermite_coeffs(p: Polynomial) -> tuple[Fraction, ...]:
    """The Hermite-basis coefficients of ``p``."""
    return _power_to_hermite(p.power_coeffs)


def is_zero(p: Polynomial) -> bool:
    return not p.power_coeffs


def scaled_argument(p: Polynomial, mu: Fraction) -> Polynomial:
    """The polynomial y -> p(mu * y)."""
    return Polynomial(c * mu**k for k, c in enumerate(p.power_coeffs))


def to_hermite(power_coeffs: Iterable[Rational]) -> tuple[Fraction, ...]:
    """Hermite-basis coefficients c_n with p = sum_n c_n g_n.

    Equivalently c_n = E[p(xi) g_n(xi)] / n!.
    """
    coeffs = _trim([_frac(c) for c in power_coeffs])
    check_degree(len(coeffs) - 1)
    return _power_to_hermite(coeffs)


def expect_product(p: Polynomial, q: Polynomial) -> Fraction:
    """E[p(xi) q(xi)]; on Hermite inputs this is delta_{n,m} * n!."""
    return expect_value(p * q)
