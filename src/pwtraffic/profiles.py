"""Step variance profiles and their exact cell tables, in rational arithmetic and without numpy.

``_cell_slices`` is the one rule that puts a position in a step cell.  ``cell_kernels`` builds the one table of
cell measures, w and x values, cell kernels K_2, K_3 and Gaussian expectations at scale K_2, which the equivalents
(``models``, which applies profiles to sampled matrices) read at N0 and the exact limits (``limits``) at N0 = lcm
of the inner grid sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .hermite import Polynomial, _frac, expect_scaled


@lru_cache(maxsize=None)
def _cell_slices(total: int, k: int) -> tuple[slice, ...]:
    """The contiguous positions of each of k uniform cells over ``total``.

    The one step-cell rule: 0-based position i lies in cell
    ceil((i + 1) k / total) - 1; a cell is empty when k > total.
    """
    return tuple(slice(r * total // k, (r + 1) * total // k) for r in range(k))


@lru_cache(maxsize=None)
def cell_overlaps(total: int, *ks: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The runs of ``total`` positions that stay in one cell of every grid.

    One (count, cell in each grid) pair per run, in position order, for
    uniform grids of ``ks`` cells (:func:`_cell_slices`).  At total =
    lcm(ks) the counts over ``total`` are the exact measures of the joint
    refinement of the grids on [0, 1].
    """
    grids = [_cell_slices(total, k) for k in ks]
    runs = []
    lo = 0
    while lo < total:
        cells = tuple(next(r for r, s in enumerate(grid) if s.start <= lo < s.stop) for grid in grids)
        hi = min(grid[r].stop for grid, r in zip(grids, cells))
        runs.append((hi - lo, cells))
        lo = hi
    return tuple(runs)


@dataclass(frozen=True)
class StepProfile:
    """K x K' grid of nonnegative rational values, read as a step function.

    Realized onto an (rows x cols) matrix, entry (i, j) takes the value of
    cell (ceil(i*K/rows), ceil(j*K'/cols)) with 1-based indices.  A constant
    profile is a 1x1 grid.
    """

    grid: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.grid or not self.grid[0]:
            raise ValueError("profile grid must be nonempty")
        width = len(self.grid[0])
        for row in self.grid:
            if len(row) != width:
                raise ValueError("profile grid must be rectangular")
            for v in row:
                if v < 0:
                    raise ValueError("profile values must be nonnegative")

    @staticmethod
    def of(rows: Sequence[Sequence]) -> "StepProfile":
        return StepProfile(tuple(tuple(_frac(v) for v in r) for r in rows))

    @staticmethod
    def constant(value=1) -> "StepProfile":
        return StepProfile(((_frac(value),),))

    @property
    def n_row_cells(self) -> int:
        return len(self.grid)

    @property
    def n_col_cells(self) -> int:
        return len(self.grid[0])

    def value(self, r: int, c: int) -> Fraction:
        return self.grid[r][c]


class CellKernels:
    """The exact cell tables of a profile pair over ``total`` inner positions.

    ``measures`` maps a vertex colour to its cell measures: colour 0 the runs
    of inner positions in one w-column and one x-row cell
    (:func:`cell_overlaps`, count over ``total``), colours 1 and 2 the
    uniform w-row and x-column cells.  ``w_table`` maps (w-row cell, run) to
    w, ``x_table`` (run, x-column cell) to x, and ``k2``, ``k3`` each (w-row
    cell, x-column cell) to K_l(r, c) = sum_z mu(z) w(r, z)^l x(z, c)^l.  The
    equivalents read them at total = N0, the exact limits at total = the lcm
    of the two inner grid sizes, where the run measures are those of the
    joint refinement: the limit tables are the finite ones at that size.
    """

    def __init__(self, profile_w: StepProfile, profile_x: StepProfile, total: int) -> None:
        runs = cell_overlaps(total, profile_w.n_col_cells, profile_x.n_row_cells)
        n_rows, n_cols = profile_w.n_row_cells, profile_x.n_col_cells
        self.measures = {
            0: tuple(Fraction(n, total) for n, _ in runs),
            1: (Fraction(1, n_rows),) * n_rows,
            2: (Fraction(1, n_cols),) * n_cols,
        }
        self.w_table = {(r, z): profile_w.value(r, cw) for r in range(n_rows) for z, (_, (cw, _)) in enumerate(runs)}
        self.x_table = {(z, c): profile_x.value(rx, c) for z, (_, (_, rx)) in enumerate(runs) for c in range(n_cols)}
        w, x, inner = self.w_table, self.x_table, tuple(enumerate(self.measures[0]))
        cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
        self.k2, self.k3 = (
            {(r, c): sum((m * w[r, z] ** ell * x[z, c] ** ell for z, m in inner), Fraction(0)) for r, c in cells}
            for ell in (2, 3)
        )

    # cell_kernels keeps every instance for the life of the process, so these
    # caches keep nothing alive that would otherwise be freed
    @lru_cache(maxsize=None)
    def expect(self, p: Polynomial) -> dict[tuple[int, int], Fraction]:
        """E[p(sqrt(K_2) xi)] per cell."""
        return {rc: expect_scaled(p, k) for rc, k in self.k2.items()}

    @lru_cache(maxsize=None)
    def deformation(self, h: Polynomial, m3: Fraction) -> dict[tuple[int, int], Fraction]:
        """m3 * K_3 * E[h'''(sqrt(K_2) xi)] per cell, with m3 = m3_w m3_x / 6."""
        third = self.expect(h.derivative(3))
        return {rc: m3 * k * third[rc] for rc, k in self.k3.items()}

    def rows(self, cells: dict) -> tuple[tuple, ...]:
        """A per-cell table as rows over the w-row cells."""
        return tuple(tuple(cells[r, c] for c in range(len(self.measures[2]))) for r in range(len(self.measures[1])))


@lru_cache(maxsize=None)
def cell_kernels(profile_w: StepProfile, profile_x: StepProfile, total: int) -> CellKernels:
    """The shared :class:`CellKernels` of (profile_w, profile_x, total)."""
    return CellKernels(profile_w, profile_x, total)
