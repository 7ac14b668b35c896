"""Ensemble definitions that only the tests use.

The skewed two-point entry law of the tests, a step profile realized entry
by entry, one chaos order of the Gaussian equivalent on its own, the
unprofiled chaos noises and the deterministic deformation as a matrix.  The
last three share the streams and cell tables of ``pwtraffic.models``, so
what they build agrees with the pieces of ``equivalent_sum``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from pwtraffic.hermite import Polynomial
from pwtraffic.models import (
    STREAM_PER,
    EntryLaw,
    ProfiledEnsemble,
    _broadcast_cells,
    _equivalent_cells,
    _scale_cells,
)
from pwtraffic.profiles import StepProfile


def unit_skewed_law() -> EntryLaw:
    """The two-point law with values (2, -1/2), probabilities (1/5, 4/5).

    Centered, unit variance, third moment 3/2.
    """
    return EntryLaw.skewed_two_point(2, Fraction(-1, 2), Fraction(1, 5))


def realized_profile(profile: StepProfile, rows: int, cols: int) -> np.ndarray:
    """The profile on a rows x cols float matrix, each entry by the ceiling rule
    of :class:`StepProfile`: 1-based entry (i, j) takes cell
    (ceil(i K / rows), ceil(j K' / cols))."""

    def cell(i: int, n: int, k: int) -> int:  # 0-based
        return -(-i * k // n) - 1

    return np.array(
        [
            [float(profile.value(cell(i, rows, profile.n_row_cells), cell(j, cols, profile.n_col_cells))) for j in range(1, cols + 1)]
            for i in range(1, rows + 1)
        ]
    )


def equivalent_per(h: Polynomial, ensemble: ProfiledEnsemble, m: int, seed: int) -> np.ndarray:
    """Order-m chaos equivalent: coefficient cells times Z_m / sqrt(N).

    The Z_m are independent standard Gaussian matrices across orders, drawn
    from the (seed, per, m) streams; a vanishing order draws nothing.
    """
    if m < 2:
        raise ValueError("chaos orders start at m = 2")
    lay = ensemble.layout
    cells = dict(_equivalent_cells(h, ensemble).chaos).get(m)
    if cells is None:
        return np.zeros((lay.N1, lay.N2))
    out = _scale_cells(np.random.default_rng([seed, STREAM_PER, m]).standard_normal((lay.N1, lay.N2)), cells)
    out /= math.sqrt(lay.N)
    return out


def per_noise_family(ensemble: ProfiledEnsemble, seed: int, max_order: int = 9) -> dict[int, np.ndarray]:
    """The unprofiled chaos noises: order n >= 2 -> i.i.d. Gaussian matrix
    with entry variance psi0 * n! / N (zero matrices for orders 0 and 1 are
    omitted).  Streams match :func:`equivalent_per`, so assembling a
    polynomial from these noises or from the per-components agrees.
    """
    lay = ensemble.layout
    psi0 = float(lay.N0) / lay.N
    out: dict[int, np.ndarray] = {}
    for n in range(2, max_order + 1):
        g = np.random.default_rng([seed, STREAM_PER, n]).standard_normal((lay.N1, lay.N2))
        out[n] = math.sqrt(psi0 * math.factorial(n) / lay.N) * g
    return out


def equivalent_def(h: Polynomial, ensemble: ProfiledEnsemble) -> np.ndarray:
    """Deterministic deformation: third moments times the cubed-profile factor.

    Entries are O(1/N); the zero matrix whenever either entry law has
    vanishing third moment.
    """
    cells = _equivalent_cells(h, ensemble).deformation
    shape = (ensemble.layout.N1, ensemble.layout.N2)
    return np.zeros(shape) if cells is None else _broadcast_cells(cells, shape) / ensemble.layout.N
