"""Exact polynomial calculus for the standard Gaussian weight.

Everything here is arbitrary-precision rational: polynomials are stored in
the power basis, and a label given in the basis of probabilists' Hermite
polynomials g_n (three-term recurrence g_{n+1}(y) = y*g_n(y) -
n*g_{n-1}(y), normalized so that E[g_n(xi) g_m(xi)] = delta_{n,m} * n! for a
standard Gaussian xi) is converted to it by ``from_hermite``.  Floating
point never enters; downstream limit identities are exact rational equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction, str]

#: Degree cap of parsed labels and Hermite generation.
#: Desk-scale experiments use odd polynomials up to degree 9; factorials stay small.
DEFAULT_MAX_DEGREE = 15


def check_degree(degree: int) -> int:
    """``degree``, or a ValueError if it exceeds ``DEFAULT_MAX_DEGREE``."""
    if degree > DEFAULT_MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the degree cap {DEFAULT_MAX_DEGREE}")
    return degree


def _frac(x: Rational) -> Fraction:
    """``x`` as an exact rational; a ValueError naming ``x`` if it is none."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError) as exc:  # "1/0" raises ZeroDivisionError, inf OverflowError
        raise ValueError(f"not a rational number: {x!r}") from exc


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def double_factorial(n: int) -> int:
    """(n)!! with the empty-product convention for n <= 0."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def gaussian_moment(n: int) -> Fraction:
    """E[xi^n] for xi standard Gaussian: (n-1)!! for even n, else 0.

    Equals the number of pair partitions of an n-element set.
    """
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if n % 2 == 1:
        return Fraction(0)
    return Fraction(double_factorial(n - 1))


@lru_cache(maxsize=None)
def _hermite_power_coeffs(n: int) -> tuple[Fraction, ...]:
    # g_0 = 1, g_1 = y, g_{n+1} = y g_n - n g_{n-1}
    if n == 0:
        return (Fraction(1),)
    if n == 1:
        return (Fraction(0), Fraction(1))
    prev2 = _hermite_power_coeffs(n - 2)
    prev1 = _hermite_power_coeffs(n - 1)
    out = [Fraction(0)] * (n + 1)
    for k, c in enumerate(prev1):
        out[k + 1] += c
    for k, c in enumerate(prev2):
        out[k] -= (n - 1) * c
    return tuple(out)


def _hermite_to_power(herm: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * len(herm)
    for n, c in enumerate(herm):
        if c == 0:
            continue
        for k, g in enumerate(_hermite_power_coeffs(n)):
            out[k] += c * g
    return _trim(out)


@dataclass(frozen=True)
class Polynomial:
    """Immutable univariate polynomial, stored in the power basis.

    ``power_coeffs`` is trimmed (no trailing zeros).
    """

    power_coeffs: tuple[Fraction, ...]

    def __init__(self, power_coeffs: Iterable[Rational]) -> None:
        object.__setattr__(self, "power_coeffs", _trim([_frac(c) for c in power_coeffs]))

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = 0."""
        return max(len(self.power_coeffs) - 1, 0)

    @property
    def is_odd(self) -> bool:
        """True iff only odd-degree power coefficients are present."""
        return all(c == 0 for k, c in enumerate(self.power_coeffs) if k % 2 == 0)

    def derivative(self, m: int = 1) -> "Polynomial":
        coeffs = self.power_coeffs
        for _ in range(m):
            coeffs = tuple(k * c for k, c in enumerate(coeffs) if k >= 1)
        return Polynomial(coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.power_coeffs, other.power_coeffs
        if not a or not b:
            return Polynomial(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.power_coeffs]})"


def monomial(n: int) -> Polynomial:
    """h_n : x -> x^n."""
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    return Polynomial([0] * n + [1])


def hermite(n: int) -> Polynomial:
    """Probabilists' Hermite polynomial g_n, generated by the recurrence."""
    if n < 0:
        raise ValueError("Hermite order must be >= 0")
    return Polynomial(_hermite_power_coeffs(check_degree(n)))


def from_hermite(hermite_coeffs: Iterable[Rational]) -> tuple[Fraction, ...]:
    """Power-basis coefficients of sum_n c_n g_n, given the c_n."""
    return _hermite_to_power([_frac(c) for c in hermite_coeffs])


def expect_scaled(p: Polynomial, mu_sq: Fraction) -> Fraction:
    """E[p(mu * xi)] as an exact rational in mu^2.

    Odd Gaussian moments vanish, so only even powers of the scale survive.
    """
    mu_sq = _frac(mu_sq)
    total = Fraction(0)
    for k, c in enumerate(p.power_coeffs):
        if k % 2 == 0 and c != 0:
            total += c * mu_sq ** (k // 2) * gaussian_moment(k)
    return total
