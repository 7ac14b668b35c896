"""Exact Gaussian-calculus tests.

Derived expectations are computed by independent oracles inside this file
(pair-partition enumeration for moments, exact inner products for basis
conversion) and compared exactly; no tolerances anywhere.
"""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest

from pwtraffic.cli import parse_polynomial
from pwtraffic.hermite import (
    Polynomial,
    expect_derivative,
    expect_scaled,
    from_hermite,
    gaussian_moment,
    hermite,
    monomial,
)
from hermite_oracle import expect_product, hermite_coeffs, is_zero, scaled_argument, to_hermite


def enumerate_pair_partitions(n):
    """Oracle: all ways to pair up {0..n-1}; empty partition for n = 0."""
    if n == 0:
        yield []
        return
    if n % 2:
        return
    items = list(range(n))
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for sub in enumerate_pair_partitions(n - 2):
            remap = rest[:i] + rest[i + 1 :]
            yield [(first, partner)] + [(remap[a], remap[b]) for a, b in sub]


def count_pairings(n):
    return sum(1 for _ in enumerate_pair_partitions(n))


def test_gaussian_moment_examples():
    assert gaussian_moment(0) == 1
    assert gaussian_moment(3) == 0
    assert gaussian_moment(6) == count_pairings(6)  # 15 by enumeration
    assert gaussian_moment(6) == 15


def test_gaussian_moment_matches_pairing_enumeration():
    for n in range(13):
        assert gaussian_moment(n) == count_pairings(n)


def test_hermite_examples():
    assert hermite(1).power_coeffs == (Fraction(0), Fraction(1))
    assert hermite(3).power_coeffs == (Fraction(0), Fraction(-3), Fraction(0), Fraction(1))
    # recurrence disagrees with a misprinted source value here; the recurrence wins
    assert hermite(5).power_coeffs == (
        Fraction(0),
        Fraction(15),
        Fraction(0),
        Fraction(-10),
        Fraction(0),
        Fraction(1),
    )


def test_hermite_derivative_identity():
    for n in range(1, 13):
        assert hermite(n).derivative(1) == n * hermite(n - 1)


def test_hermite_degree_guard():
    with pytest.raises(ValueError):
        hermite(16)
    assert hermite(15).degree == 15


def test_to_hermite_examples():
    def inner_product_coeffs(p):
        # oracle: c_n = E[p(xi) g_n(xi)] / n!
        return tuple(
            expect_product(p, hermite(n)) / math.factorial(n) for n in range(p.degree + 1)
        )

    h3 = monomial(3)
    assert to_hermite(h3.power_coeffs) == (0, 3, 0, 1)
    assert inner_product_coeffs(h3) == (0, 3, 0, 1)
    assert to_hermite(monomial(1).power_coeffs) == (0, 1)
    h5 = monomial(5)
    assert to_hermite(h5.power_coeffs) == (0, 15, 0, 10, 0, 1)
    assert inner_product_coeffs(h5) == (0, 15, 0, 10, 0, 1)


def test_hermite_round_trip():
    for degree in range(13):
        coeffs = [Fraction(k * k - 3, k + 2) for k in range(degree + 1)]
        p = Polynomial(coeffs)
        assert Polynomial(from_hermite(hermite_coeffs(p))) == p


def test_dual_basis_invariant():
    p = Polynomial([1, Fraction(-2, 3), 0, 5])
    q = Polynomial(from_hermite(hermite_coeffs(p)))
    assert q.power_coeffs == p.power_coeffs
    assert hermite_coeffs(q) == hermite_coeffs(p)


def test_expect_product_orthogonality():
    for n in range(9):
        for m in range(9):
            want = Fraction(math.factorial(n)) if n == m else Fraction(0)
            assert expect_product(hermite(n), hermite(m)) == want


def test_expect_product_examples():
    assert expect_product(hermite(2), hermite(3)) == 0
    assert expect_product(monomial(1), monomial(1)) == 1
    assert expect_product(monomial(3), monomial(3)) == 15


def test_expect_derivative_examples():
    assert expect_derivative(hermite(3), 3) == 6
    assert expect_derivative(monomial(3), 3) == 6
    assert expect_derivative(monomial(5), 1) == 15


def test_expect_scaled_matches_argument_substitution():
    # independent oracle: scale the argument with a rational mu, then average
    mu = Fraction(3, 2)
    for n in range(8):
        p = hermite(n)
        direct = sum(
            c * mu**k * gaussian_moment(k) for k, c in enumerate(p.power_coeffs)
        )
        assert expect_scaled(p, mu**2) == direct
        assert scaled_argument(p, mu).power_coeffs == tuple(
            c * mu**k for k, c in enumerate(p.power_coeffs)
        )


def test_polynomial_arithmetic_and_parity():
    p = monomial(3) + Fraction(2) * monomial(1)
    assert p.is_odd
    assert not (p + monomial(2)).is_odd
    assert (monomial(2) * monomial(3)).degree == 5
    assert is_zero(Polynomial.zero())
    assert p(Fraction(2)) == 12
    assert p.derivative(1).power_coeffs == (Fraction(2), Fraction(0), Fraction(3))


def test_json_round_trip():
    p = Polynomial([Fraction(3, 2), 0, Fraction(-1, 7)])
    assert parse_polynomial({"basis": "power", "coeffs": ["3/2", "0", "-1/7"]}) == p
    # 3/2 - x^2/7 = (3/2 - 1/7) g_0 - g_2/7
    assert parse_polynomial({"basis": "hermite", "coeffs": ["19/14", "0", "-1/7"]}) == p
    assert parse_polynomial({"basis": "hermite", "coeffs": ["0", "0", "0", "1"]}) == hermite(3)
    with pytest.raises(ValueError):
        parse_polynomial({"basis": "laguerre", "coeffs": ["1"]})


def test_pickle_and_deepcopy_round_trip():
    for p in (monomial(3), hermite(5), Polynomial.zero()):
        for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert clone == p and hash(clone) == hash(p)
            assert hermite_coeffs(clone) == hermite_coeffs(p)


def test_from_json_caps_degree_before_conversion():
    for basis in ("power", "hermite"):
        with pytest.raises(ValueError, match="exceeds the degree cap"):
            parse_polynomial({"basis": basis, "coeffs": ["1"] * 1000})
        assert parse_polynomial({"basis": basis, "coeffs": ["1"] * 16 + ["0"] * 100}).degree == 15
