"""Pennington and Worah's moments of the Gram matrix, exactly, as a test oracle.

Pennington and Worah ("Nonlinear random matrix theory for deep learning",
NeurIPS 2017) give the Stieltjes transform of Y Y^t / m for Y = f(W X) as
the root of a quartic.  In moment form: with eta = E[f(xi)^2], zeta =
E[f'(xi)]^2, phi = n0/m and psi = n0/n1, the power series
P(t) = 1 + sum_k p_k t^k solves

    P = 1 + (eta - zeta) t A + zeta t A / (1 - zeta t A),
    A = (1 + phi (P - 1)) (1 + psi (P - 1)),

and the k-th moment is m_k = psi^(1 - k) p_k.  The t^k coefficient of the
right side reads P only up to t^(k-1), so K sweeps of the fixed point give
p_1..p_K exactly.  Nothing here shares code with ``pwtraffic.limits``.
"""

from __future__ import annotations

from fractions import Fraction


def _times(a: list, b: list) -> list:
    """The product of two power series, truncated to the length of ``a``."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] += x * y
    return out


def pw_moments(eta, zeta, phi, psi, K: int) -> list[Fraction]:
    """[m_1, ..., m_K] of the Pennington-Worah fixed point, in Fractions."""
    eta, zeta, phi, psi = map(Fraction, (eta, zeta, phi, psi))
    p = [Fraction(1)] + [Fraction(0)] * K
    for _ in range(K):
        a = _times([Fraction(1)] + [phi * c for c in p[1:]], [Fraction(1)] + [psi * c for c in p[1:]])
        ta = [Fraction(0)] + a[:K]  # t A
        geometric, power = [Fraction(0)] * (K + 1), [Fraction(1)] + [Fraction(0)] * K
        for _ in range(K):  # zeta t A / (1 - zeta t A) = sum_j (zeta t A)^j
            power = _times(power, [zeta * c for c in ta])
            geometric = [g + q for g, q in zip(geometric, power)]
        p = [Fraction(1)] + [(eta - zeta) * t + g for t, g in zip(ta[1:], geometric[1:])]
    return [psi ** (1 - k) * p[k] for k in range(1, K + 1)]
