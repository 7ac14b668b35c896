"""Profiled matrix ensembles, the lambda-block decomposition, and equivalents.

The model applies a polynomial entrywise to a normalized product of two
independent rectangular matrices with step variance profiles.  This module
samples the ensemble, splits the matrix into its linear / perturbative /
deformation / remainder components via the distinct-index block sums, and
builds the independent-Gaussian equivalents whose traffic limits the exact
calculator reproduces.

Sampling is deterministic per (ensemble, seed): every independent matrix is
drawn from its own generator seeded by (seed, stream tag), so components can
be built concurrently without sharing generator state.  ``model_sampler`` and
``equivalent_sampler`` build the per-trial families that the CLI and the
tests feed to ``traffic.tau_estimates``.  Each trial makes its draws,
products and equivalents as new arrays; the heap setting that ``traffic``
makes when imported lets them reuse the pages the last trial freed.

Entrywise coefficients for the equivalents are computed as exact rationals
per distinct profile-cell value (step profiles have few cells), once per
(polynomial, ensemble): ensembles and polynomials are frozen and hashable,
and the cell values are cached.  They come from ``cell_kernels``, the one
table of cell kernels K_2, K_3 and Gaussian expectations at scale K_2, which
the exact limits read at N0 = lcm of the inner grid sizes; ``_cell_slices``
is the one rule that puts a position in a step cell.  Profiles and
coefficients are applied to a sampled matrix in place, one contiguous cell
block at a time, so no realized profile matrix is built; the only
floating-point step is one square root per cell.  The cell-level
second-moment scale is normalized by the inner dimension, so it equals 1
for constant profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .hermite import Polynomial, _frac, expect_derivative, expect_scaled, gaussian_moment
from .partitions import IntegerPartition, restricted_growth_strings
from .traffic import BlockLayout, MatrixFamily

# RNG stream tags (seed, tag, ...) for independent components.
STREAM_W = 1
STREAM_X = 2
STREAM_LIN_W = 11
STREAM_LIN_X = 12
STREAM_PER = 20  # (seed, STREAM_PER, order)

_MAX_Z_PARTS = 8
_ROW_TILE = 32  # rows of a z_lambda result built per pass, the height of its scratch buffer


def _fit_float(what: str, compute: Callable[[], object]) -> float:
    """``float(compute())``; a value past the float range raises ValueError saying that ``what`` does not fit."""
    try:
        out = float(compute())
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{what} does not fit a float")
    return out


# -- entry laws --------------------------------------------------------------


@dataclass(frozen=True)
class EntryLaw:
    """Centered unit-variance i.i.d. entry law with finite moments.

    Two-point laws take value ``a`` with probability ``p`` and ``b``
    otherwise; the mean-zero variance-one constraints are checked exactly.
    """

    kind: str
    a: Fraction | None = None
    b: Fraction | None = None
    p: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind == "gaussian":
            return
        if self.kind in ("rademacher", "skewed_two_point"):
            a, b, p = self.a, self.b, self.p
            if a is None or b is None or p is None:
                raise ValueError("two-point laws need values a, b and probability p")
            if not (0 < p < 1):
                raise ValueError("p must lie in (0, 1)")
            if p * a + (1 - p) * b != 0:
                raise ValueError("two-point law is not centered")
            if p * a**2 + (1 - p) * b**2 != 1:
                raise ValueError("two-point law does not have unit variance")
            return
        raise ValueError(f"unknown entry law kind {self.kind!r}")

    @staticmethod
    def gaussian() -> "EntryLaw":
        return EntryLaw("gaussian")

    @staticmethod
    def rademacher() -> "EntryLaw":
        return EntryLaw("rademacher", a=Fraction(1), b=Fraction(-1), p=Fraction(1, 2))

    @staticmethod
    def skewed_two_point(a, b, p) -> "EntryLaw":
        return EntryLaw("skewed_two_point", a=_frac(a), b=_frac(b), p=_frac(p))

    def moment(self, k: int) -> Fraction:
        if self.kind == "gaussian":
            return gaussian_moment(k)
        return self.p * self.a**k + (1 - self.p) * self.b**k

    @property
    def m3(self) -> Fraction:
        return self.moment(3)

    def sample(self, rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(shape)
        p, a, b = (_fit_float(f"the {self.kind} law's {key}", lambda: getattr(self, key)) for key in "pab")
        u = rng.random(shape)
        return np.where(u < p, a, b)


# -- step profiles -----------------------------------------------------------


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


@lru_cache(maxsize=None)
def _row_vectors(cells: tuple[tuple[float, ...], ...], n_cols: int) -> tuple[np.ndarray | None, ...]:
    """Per row cell, its values spread over ``n_cols`` columns, or None when all are 1."""
    counts = [s.stop - s.start for s in _cell_slices(n_cols, len(cells[0]))]
    return tuple(None if all(v == 1 for v in row) else np.repeat(np.array(row, dtype=float), counts) for row in cells)


def _scale_cells(a: np.ndarray, cells: Sequence[Sequence[float]]) -> np.ndarray:
    """Multiply each cell block of ``a`` in place by its value; returns ``a``.

    Entry for entry the product of ``a`` with the broadcast cell matrix,
    without building that matrix: one multiply per row cell, by that row's
    cached vector over the columns (a factor of 1.0 changes no entry).
    """
    for rs, vector in zip(_cell_slices(a.shape[0], len(cells)), _row_vectors(tuple(map(tuple, cells)), a.shape[1])):
        if vector is not None:
            a[rs] *= vector
    return a


def _broadcast_cells(cells: Sequence[Sequence], shape: tuple[int, int]) -> np.ndarray:
    """The matrix of the given shape holding each cell's float value."""
    return _scale_cells(np.ones(shape), [[float(v) for v in row] for row in cells])


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

    def realize(self, rows: int, cols: int) -> np.ndarray:
        return self.apply(np.ones((rows, cols)))

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Multiply ``a`` in place by this profile realized on its shape.

        Entry for entry ``realize(*a.shape) * a``; returns ``a``.
        """
        return _scale_cells(a, _float_grid(self))

    def value(self, r: int, c: int) -> Fraction:
        return self.grid[r][c]


@lru_cache(maxsize=None)
def _float_grid(profile: StepProfile) -> tuple[tuple[float, ...], ...]:
    cells = enumerate(profile.grid)
    return tuple(tuple(_fit_float(f"profile cell {(r, c)}", lambda: v) for c, v in enumerate(row)) for r, row in cells)


# -- the profiled ensemble ----------------------------------------------------


@dataclass(frozen=True)
class ProfiledEnsemble:
    """Matrix sizes, entry laws and variance profiles of the two factors.

    W is N1 x N0 with profile_w, X is N0 x N2 with profile_x.
    """

    layout: BlockLayout
    law_w: EntryLaw
    law_x: EntryLaw
    profile_w: StepProfile
    profile_x: StepProfile

    def realized_profiles(self) -> tuple[np.ndarray, np.ndarray]:
        lay = self.layout
        return (
            self.profile_w.realize(lay.N1, lay.N0),
            self.profile_x.realize(lay.N0, lay.N2),
        )

    def draw(
        self, rng_w: np.random.Generator, rng_x: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(W, X) = (profile o W', profile o X'): W' from ``rng_w``, then X'
        from ``rng_x`` (default: the same generator)."""
        lay = self.layout
        w = self.profile_w.apply(self.law_w.sample(rng_w, (lay.N1, lay.N0)))
        x = self.profile_x.apply(self.law_x.sample(rng_x or rng_w, (lay.N0, lay.N2)))
        return w, x

    def sample(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (W, X), deterministic per seed: W' from the (seed, W) stream,
        X' from the (seed, X) stream."""
        return self.draw(np.random.default_rng([seed, STREAM_W]), np.random.default_rng([seed, STREAM_X]))


def pw_matrix(h: Polynomial, w: np.ndarray, x: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """sqrt(psi0)/sqrt(N) times the entrywise evaluation of h on WX/sqrt(N0)."""
    if (*w.shape, *x.shape) != (layout.N1, layout.N0, layout.N0, layout.N2):
        raise ValueError("matrix shapes do not match the layout")
    inner = (w @ x).astype(float, copy=False)
    inner /= math.sqrt(layout.N0)
    return _horner(h, inner, layout)


def _horner(h: Polynomial, inner: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """sqrt(N0)/N times h evaluated entrywise on the float matrix ``inner``."""
    coeffs = [_fit_float(f"the label coefficient of x^{k}", lambda: c) for k, c in enumerate(h.power_coeffs)]
    coeffs = coeffs or [0.0]  # the zero polynomial has no coefficients
    acc = np.full_like(inner, coeffs[-1])
    for c in reversed(coeffs[:-1]):  # Horner, in place
        acc *= inner
        if c:
            acc += c
    acc *= math.sqrt(layout.N0) / layout.N
    return acc


# -- lambda-type block sums ----------------------------------------------------


def ones_and_pairs(n: int, m: int) -> IntegerPartition:
    """Partition of n with m parts equal to one and the rest twos."""
    if m < 0 or (n - m) % 2 or n < m:
        raise ValueError(f"no partition of {n} with {m} ones and the rest twos")
    return IntegerPartition.of([2] * ((n - m) // 2) + [1] * m)


def triple_and_pairs(n: int) -> IntegerPartition:
    """Partition of n with one part equal to three and the rest twos."""
    if n < 3 or (n - 3) % 2:
        raise ValueError(f"no partition of {n} with a single 3 and the rest twos")
    return IntegerPartition.of([3] + [2] * ((n - 3) // 2))


def power_sums(w: np.ndarray, x: np.ndarray, top: int) -> dict[int, np.ndarray]:
    """The table m -> (W^{om}) (X^{om}) for m = 1..top; exact on integer inputs.

    The entrywise powers are built by repeated multiplication, in place from
    m = 3 on (``w`` and ``x`` are never written), so the table costs ``top``
    matmuls, ``top`` result matrices and one pair of power buffers.
    """
    w = np.asarray(w)
    x = np.asarray(x)
    if np.issubdtype(w.dtype, np.integer) and np.issubdtype(x.dtype, np.integer):
        w = w.astype(object)
        x = x.astype(object)
    table: dict[int, np.ndarray] = {}
    w_m, x_m = w, x
    for m in range(1, top + 1):
        if m > 1:  # new arrays at m = 2, so w and x are never written
            w_m = w * w if m == 2 else np.multiply(w_m, w, out=w_m)
            x_m = x * x if m == 2 else np.multiply(x_m, x, out=x_m)
        table[m] = w_m @ x_m
    return table


@lru_cache(maxsize=None)
def inclusion_exclusion_terms(parts: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Grouped Moebius expansion of the distinct-index sum over ``parts``.

    Each set partition sigma of the parts contributes mu(sigma) = prod over
    blocks of (-1)^(|B|-1) (|B|-1)! times the product of u(block sum); terms
    with the same multiset of block sums are merged.  Returns
    (coefficient, non-increasing block sums) pairs with nonzero integer
    coefficients, in first-seen order.
    """
    grouped: dict[tuple[int, ...], int] = {}
    for labels in restricted_growth_strings(len(parts)):  # sigma: the block label of each part
        n_blocks = max(labels, default=-1) + 1
        sums, sizes = [0] * n_blocks, [0] * n_blocks
        for part, label in zip(parts, labels):
            sums[label] += part
            sizes[label] += 1
        weight = math.prod((-1) ** (n - 1) * math.factorial(n - 1) for n in sizes)
        key = tuple(sorted(sums, reverse=True))
        grouped[key] = grouped.get(key, 0) + weight
    return tuple((c, key) for key, c in grouped.items() if c != 0)


def z_lambda(lam: IntegerPartition, sums: dict[int, np.ndarray]) -> np.ndarray:
    """Distinct-index block sum over the inner dimension.

    Entry (i, j) sums, over tuples of pairwise distinct inner indices (one
    per part), the product over parts of (W(i, d) X(d, j))^part.  Computed by
    inclusion-exclusion over coincidence patterns of the parts, grouped by
    the multiset of block sums (:func:`inclusion_exclusion_terms`), which
    reduces every term to entrywise products of W^{om} X^{om} matrices; exact
    on integer inputs.  Depends only on the partition, not on a
    representative.

    ``sums`` is a :func:`power_sums` table of (W, X) up to at least
    ``lam.total``, shared across calls on the same matrices; never written.
    Filled ``_ROW_TILE`` rows at a time, each entry by the whole-matrix
    form's operations in order.
    """
    parts = lam.parts
    b = len(parts)
    if b > _MAX_Z_PARTS:
        raise ValueError(f"z_lambda guarded at {_MAX_Z_PARTS} parts, got {b}")
    if lam.total not in sums:
        raise ValueError(f"power-sum table stops below {lam.total}")
    out = np.empty_like(sums[lam.total])
    buf = np.empty_like(out[:_ROW_TILE])
    for start in range(0, len(out), _ROW_TILE):
        rows = slice(start, start + _ROW_TILE)
        acc, u = out[rows], {m: s[rows] for m, s in sums.items()}
        for k, (coeff, (head, *rest)) in enumerate(inclusion_exclusion_terms(parts)):
            term = np.multiply(u[head], u[rest[0]] if rest else coeff, out=buf[: len(acc)] if k else acc)
            for m in rest[1:]:
                term *= u[m]
            if rest:
                term *= coeff
            if k:
                acc += term
    return out


@dataclass(frozen=True)
class Decomposition:
    """Split of a sampled matrix into linear, perturbative, deformation and
    remainder components; the four sum back to the full matrix ``total``
    exactly."""

    lin: np.ndarray
    per: dict[int, np.ndarray]
    deformation: np.ndarray
    eps: np.ndarray
    total: np.ndarray

    def reassembled(self) -> np.ndarray:
        out = self.lin + self.deformation
        for m in (self.eps, *self.per.values()):
            out += m
        return out


def check_decompose_label(h: Polynomial) -> Polynomial:
    """``h``, or a ValueError if :func:`decompose` does not take it: odd, of degree at most 7."""
    if not h.is_odd:
        raise ValueError("decompose expects an odd polynomial")
    if h.degree > 7:
        raise ValueError("decompose guarded at degree 7")
    return h


def decompose(h: Polynomial, sums: dict[int, np.ndarray], layout: BlockLayout) -> Decomposition:
    """Four-part split of the model matrix along distinct-index block types.

    The linear part collects the single-free-index blocks weighted by
    E[h_n'], the order-m perturbative parts the m-ones blocks weighted by
    E[h_n^(m)]/m!, the deformation the one-triple blocks weighted by
    E[h_n''']/6; the remainder is what is left of the full matrix.

    ``sums`` is the :func:`power_sums` table of the layout's W and X up to
    at least max(h.degree, 1), never written; it is dropped before the Horner
    step on S_1 = W@X, which frees a table passed as a temporary.
    """
    check_decompose_label(h)
    if any(m not in sums for m in range(1, max(h.degree, 1) + 1)) or sums[1].shape != (layout.N1, layout.N2):
        raise ValueError("decompose needs a power-sum table of N1 x N2 matrices up to max(h.degree, 1)")
    shape = (layout.N1, layout.N2)
    gamma = math.sqrt(layout.N0) / layout.N  # sqrt(psi0)/sqrt(N)
    lin = np.zeros(shape)
    per: dict[int, np.ndarray] = {}
    deform = np.zeros(shape)

    def scaled(lam: IntegerPartition, coeff: Fraction, scale: float) -> np.ndarray:
        z = z_lambda(lam, sums).astype(float, copy=False)
        z *= _fit_float(f"the coefficient of the {lam.parts} block sum", lambda: coeff) * scale
        return z

    for n, a_n in enumerate(h.power_coeffs):
        if a_n == 0:
            continue
        hn = Polynomial([0] * n + [1])
        scale = gamma * float(layout.N0) ** (-n / 2)
        c_lin = expect_derivative(hn, 1)
        if c_lin != 0:
            lin += scaled(ones_and_pairs(n, 1), a_n * c_lin, scale)
        for m in range(2, n + 1):
            c_m = expect_derivative(hn, m) / math.factorial(m)
            if c_m == 0:
                continue
            term = scaled(ones_and_pairs(n, m), a_n * c_m, scale)
            per[m] = np.add(per[m], term, out=per[m]) if m in per else term
        if n >= 3:
            c_def = expect_derivative(hn, 3) / 6
            if c_def != 0:
                deform += scaled(triple_and_pairs(n), a_n * c_def, scale)
    # pw_matrix's Horner step on W@X from the table, in new arrays
    inner = (sums[1] / math.sqrt(layout.N0)).astype(float, copy=False)
    del sums
    total = _horner(h, inner, layout)
    eps = total - lin
    for mat in (deform, *per.values()):
        eps -= mat
    return Decomposition(lin=lin, per=per, deformation=deform, eps=eps, total=total)


# -- profile cell kernels -------------------------------------------------------


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


def _ensemble_kernels(ensemble: ProfiledEnsemble) -> CellKernels:
    return cell_kernels(ensemble.profile_w, ensemble.profile_x, ensemble.layout.N0)


def _float_rows(kernels: CellKernels, name: str, value) -> tuple[tuple[float, ...], ...]:
    """``kernels.rows`` of ``float(value(cell))``; a cell past the float range raises ValueError."""
    cells = {rc: _fit_float(f"the {name} coefficient of profile cell {rc}", lambda: value(rc)) for rc in kernels.k2}
    return kernels.rows(cells)


# -- Gaussian equivalents -------------------------------------------------------
#
# The coefficient cells depend only on (h, ensemble[, m]) and are cached, so
# every sampled trial reuses them.


@lru_cache(maxsize=None)
def _lin_coefficient_cells(h: Polynomial, ensemble: ProfiledEnsemble) -> tuple[tuple[float, ...], ...]:
    """Cellwise E[h'(mu xi)] for the linear equivalent."""
    kernels = _ensemble_kernels(ensemble)
    return _float_rows(kernels, "linear", kernels.expect(h.derivative(1)).get)


def equivalent_lin(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """Linear equivalent: E[h'(mu xi)] cellwise, times a profiled Wishart factor.

    The Gaussian factors are sampled independently of everything else from
    the (seed, lin) streams.
    """
    lay = ensemble.layout
    w_gau = np.random.default_rng([seed, STREAM_LIN_W]).standard_normal((lay.N1, lay.N0))
    x_gau = np.random.default_rng([seed, STREAM_LIN_X]).standard_normal((lay.N0, lay.N2))
    product = ensemble.profile_w.apply(w_gau) @ ensemble.profile_x.apply(x_gau)
    out = _scale_cells(product, _lin_coefficient_cells(h, ensemble))
    out /= lay.N
    return out


@lru_cache(maxsize=None)
def _per_coefficient_cells(h: Polynomial, ensemble: ProfiledEnsemble, m: int) -> tuple[tuple[float, ...], ...]:
    """Cellwise noise scale for the order-m chaos component.

    The m-th Hermite coefficient of t -> h(t mu) is mu^m E[h^(m)(mu xi)]/m!;
    the matching noise has entry variance psi0 * m! / N, so the coefficient
    in front of a standard Gaussian scaled by 1/sqrt(N) is
    sqrt(psi0 * m!) * mu^m * E[h^(m)(mu xi)] / m!.
    """
    lay = ensemble.layout
    scale = math.sqrt(float(lay.N0) / lay.N * math.factorial(m))  # sqrt(psi0 * m!)
    kernels = _ensemble_kernels(ensemble)
    base = kernels.expect(h.derivative(m))  # exact rationals
    return _float_rows(
        kernels, f"order-{m} chaos", lambda rc: scale * float(kernels.k2[rc]) ** (m / 2) * float(base[rc]) / math.factorial(m)
    )


def _chaos_term(h: Polynomial, ensemble: ProfiledEnsemble, m: int, seed: int) -> np.ndarray | None:
    """Coefficient cells times Z_m / sqrt(N), or None, with no draw, when
    every coefficient cell is exactly zero (e.g. every even order of an odd
    h): adding 0 * Z_m would change no entry."""
    cells = _per_coefficient_cells(h, ensemble, m)
    if not any(any(row) for row in cells):
        return None
    lay = ensemble.layout
    z_m = np.random.default_rng([seed, STREAM_PER, m]).standard_normal((lay.N1, lay.N2))
    out = _scale_cells(z_m, cells)
    out /= math.sqrt(lay.N)
    return out


def per_matrix(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """Full chaos equivalent: sum of order components over 2 <= m <= deg h.

    Orders whose coefficient cells all vanish are skipped: each order has
    its own stream, so the others draw what they would draw anyway.
    """
    out = None
    for m in range(2, h.degree + 1):
        term = _chaos_term(h, ensemble, m, seed)
        if term is not None:
            out = term if out is None else np.add(out, term, out=out)
    return np.zeros((ensemble.layout.N1, ensemble.layout.N2)) if out is None else out


@lru_cache(maxsize=None)
def _def_cells(h: Polynomial, ensemble: ProfiledEnsemble) -> tuple[tuple[float, ...], ...] | None:
    """Cellwise m3 lambda_3 E[h^(3)(mu xi)] / 6, or None when m3 or h^(3) vanishes."""
    m3 = ensemble.law_w.m3 * ensemble.law_x.m3
    if m3 == 0 or h.degree < 3:
        return None
    kernels = _ensemble_kernels(ensemble)
    return _float_rows(kernels, "deformation", kernels.deformation(h, m3 / 6).get)


def _deformation_term(cells: Sequence[Sequence[float]], layout: BlockLayout) -> np.ndarray:
    """The deformation cells broadcast and divided by N."""
    out = _broadcast_cells(cells, (layout.N1, layout.N2))
    out /= layout.N
    return out


def equivalent_sum(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """equivalent_lin + all chaos orders + the deterministic deformation (when nonzero).

    The deformation is third moments times the cubed-profile factor, with
    entries of order 1/N; it vanishes when either entry law has a vanishing
    third moment.
    """
    out = equivalent_lin(h, ensemble, seed)
    out += per_matrix(h, ensemble, seed)
    cells = _def_cells(h, ensemble)
    if cells is not None:
        out += _deformation_term(cells, ensemble.layout)
    return out


# -- per-trial samplers ---------------------------------------------------------


def distinct_labels(graphs) -> list:
    """The edge labels of the graphs, each once, in first-seen order."""
    seen: list = []
    for g in graphs:
        for e in g.edges:
            if e.label not in seen:
                seen.append(e.label)
    return seen


def model_sampler(ensemble: ProfiledEnsemble, labels: Sequence[Polynomial]):
    """Per-trial family: one (W, X) draw, one model matrix per label.

    The trial generator draws W', then X' (:meth:`ProfiledEnsemble.draw`).
    """
    labels = list(labels)
    lay = ensemble.layout

    def sampler(rng: np.random.Generator) -> MatrixFamily:
        w, x = ensemble.draw(rng)
        family = MatrixFamily(lay)
        for poly in labels:
            family.add(poly, pw_matrix(poly, w, x, lay), src_block=2, dst_block=1)
        return family

    return sampler


def equivalent_sampler(ensemble: ProfiledEnsemble, labels: Sequence[Polynomial]):
    """Per-trial family of assembled equivalents, one per label.

    The trial generator draws one integer, the seed of every equivalent's
    streams.
    """
    labels = list(labels)
    lay = ensemble.layout

    def sampler(rng: np.random.Generator) -> MatrixFamily:
        seed = int(rng.integers(0, 2**63 - 1))
        family = MatrixFamily(lay)
        for poly in labels:
            family.add(poly, equivalent_sum(poly, ensemble, seed), src_block=2, dst_block=1)
        return family

    return sampler
