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
tests feed to ``traffic.tau_estimates``.

The equivalents' coefficients depend only on (polynomial, ensemble), both
frozen and hashable, and are planned once per pair (``_equivalent_cells``)
from the ``profiles.CellKernels`` at N0.  Profiles and coefficients are
applied to a sampled matrix in place (``_scale_cells``).  The cell-level
second-moment scale is normalized by the inner dimension, so it equals 1
for constant profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .hermite import Polynomial, _frac, expect_scaled, gaussian_moment, monomial
from .partitions import restricted_growth_strings
from .profiles import StepProfile, _cell_slices, cell_kernels
from .traffic import BlockLayout, MatrixFamily

# RNG stream tags (seed, tag, ...) for independent components.
STREAM_W = 1
STREAM_X = 2
STREAM_LIN_W = 11
STREAM_LIN_X = 12
STREAM_PER = 20  # (seed, STREAM_PER, order)

_MAX_Z_PARTS = 8
_ROW_TILE = 32  # rows of a block sum built per pass, the height of its scratch tiles


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


# -- profiles and coefficient cells on float matrices -----------------------------


@lru_cache(maxsize=None)
def _row_vectors(cells: tuple[tuple[float, ...], ...], n_cols: int) -> tuple[np.ndarray | None, ...]:
    """Per row cell, its values spread over ``n_cols`` columns, or None when all are 1."""
    counts = [s.stop - s.start for s in _cell_slices(n_cols, len(cells[0]))]
    return tuple(None if all(v == 1 for v in row) else np.repeat(np.array(row, dtype=float), counts) for row in cells)


def _scale_cells(a: np.ndarray, cells: Sequence[Sequence[float]]) -> np.ndarray:
    """Multiply each cell block of ``a`` in place by its value; returns ``a``.

    Entry for entry the product of ``a`` with the broadcast cell matrix,
    without building that matrix: one multiply per row cell, by that row's
    cached vector over the columns (a factor of 1.0 changes no entry), so no
    strided cell block goes through numpy's buffered iterator.
    """
    for rs, vector in zip(_cell_slices(a.shape[0], len(cells)), _row_vectors(tuple(map(tuple, cells)), a.shape[1])):
        if vector is not None:
            a[rs] *= vector
    return a


def _broadcast_cells(cells: Sequence[Sequence], shape: tuple[int, int]) -> np.ndarray:
    """The matrix of the given shape holding each cell's float value."""
    return _scale_cells(np.ones(shape), [[float(v) for v in row] for row in cells])


@lru_cache(maxsize=None)
def _float_grid(profile: StepProfile) -> tuple[tuple[float, ...], ...]:
    """The profile's cells fitted to floats, the values that :func:`_scale_cells` applies to a draw."""
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
            _scale_cells(np.ones((lay.N1, lay.N0)), _float_grid(self.profile_w)),
            _scale_cells(np.ones((lay.N0, lay.N2)), _float_grid(self.profile_x)),
        )

    def draw(
        self, rng_w: np.random.Generator, rng_x: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(W, X) = (profile o W', profile o X'): W' from ``rng_w``, then X'
        from ``rng_x`` (default: the same generator)."""
        lay = self.layout
        w = _scale_cells(self.law_w.sample(rng_w, (lay.N1, lay.N0)), _float_grid(self.profile_w))
        x = _scale_cells(self.law_x.sample(rng_x or rng_w, (lay.N0, lay.N2)), _float_grid(self.profile_x))
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


def power_sums(w: np.ndarray, x: np.ndarray, top: int) -> dict[int, np.ndarray]:
    """The table m -> (W^{om}) (X^{om}) for m = 1..top; exact on integer inputs.

    The entrywise powers are built by repeated multiplication, in place from
    m = 3 on (``w`` and ``x`` are never written), so the table costs ``top``
    matmuls, ``top`` result matrices and one pair of power buffers.  The
    matmuls are not row-tiled: a row-tiled OpenBLAS gemm is not
    bit-identical to the full one.
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
    coefficients, in first-seen order.  For all-ones parts the coefficient of
    a block type is the signed count of permutations of that cycle type.
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


def z_lambda(parts: tuple[int, ...], sums: dict[int, np.ndarray]) -> np.ndarray:
    """Distinct-index block sum over the inner dimension.

    Entry (i, j) sums, over tuples of pairwise distinct inner indices (one
    per part), the product over parts of (W(i, d) X(d, j))^part.  Computed by
    inclusion-exclusion over coincidence patterns of the parts, grouped by
    the multiset of block sums (:func:`inclusion_exclusion_terms`), which
    reduces every term to entrywise products of W^{om} X^{om} matrices; exact
    on integer inputs.  Depends only on the multiset of ``parts``, not on
    their order.

    ``sums`` is a :func:`power_sums` table of (W, X) up to at least
    ``sum(parts)``, shared across calls on the same matrices; never written.
    Filled ``_ROW_TILE`` rows at a time by :func:`_block_tile`.
    """
    if len(parts) > _MAX_Z_PARTS:
        raise ValueError(f"z_lambda guarded at {_MAX_Z_PARTS} parts, got {len(parts)}")
    if sum(parts) not in sums:
        raise ValueError(f"power-sum table stops below {sum(parts)}")
    out = np.empty_like(sums[sum(parts)])
    buf = np.empty_like(out[:_ROW_TILE])
    for start in range(0, len(out), _ROW_TILE):
        rows = slice(start, start + _ROW_TILE)
        _block_tile(parts, {m: s[rows] for m, s in sums.items()}, out[rows], buf)
    return out


def _block_tile(parts: tuple[int, ...], u: dict[int, np.ndarray], acc: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Fill ``acc`` with the block sum over ``parts`` on the power-sum row views ``u``; later terms are built in ``buf``.

    The one rule that builds a block sum, on a tile of rows: each entry takes the whole-matrix form's operations in
    order, so the result does not depend on where the tiles are cut.
    """
    for k, (coeff, (head, *rest)) in enumerate(inclusion_exclusion_terms(parts)):
        term = np.multiply(u[head], u[rest[0]] if rest else coeff, out=buf[: len(acc)] if k else acc)
        for m in rest[1:]:
            term *= u[m]
        if rest:
            term *= coeff
        if k:
            acc += term
    return acc


@dataclass(frozen=True, eq=False)
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


@lru_cache(maxsize=None)
def check_decompose_label(h: Polynomial) -> tuple[tuple[object, tuple[int, ...], int, float], ...]:
    """The block sums that :func:`decompose` adds for ``h``, as (part, parts, degree n, coefficient).

    ``part`` is "lin", an order m >= 2 or "def", which read the k-th
    derivative for k = 1, m and 3; ``parts``, the block type, is k ones and
    the rest twos for "lin" and the orders, one three and the rest twos for
    "def"; the coefficient is a_n E[h_n^(k)]/k!, exact and then fitted to a
    float.  A ValueError if decompose does not take ``h``: an even part, a
    degree above 7 or a coefficient past the float range.
    """
    if not h.is_odd:
        raise ValueError("decompose expects an odd polynomial")
    if h.degree > 7:
        raise ValueError("decompose guarded at degree 7")
    terms = []
    for n, a_n in enumerate(h.power_coeffs):
        if a_n == 0:
            continue
        for part, k in [("lin", 1), *((m, m) for m in range(2, n + 1)), *([("def", 3)] if n >= 3 else [])]:
            coeff = a_n * (expect_scaled(monomial(n).derivative(k), 1) / math.factorial(k))
            if coeff != 0:
                parts = (3,) + (2,) * ((n - 3) // 2) if part == "def" else (2,) * ((n - k) // 2) + (1,) * k
                terms.append((part, parts, n, _fit_float(f"the coefficient of the {parts} block sum", lambda: coeff)))
    return tuple(terms)


def decompose(h: Polynomial, sums: dict[int, np.ndarray], layout: BlockLayout) -> Decomposition:
    """Four-part split of the model matrix along distinct-index block types.

    The linear part collects the single-free-index blocks weighted by
    E[h_n'], the order-m perturbative parts the m-ones blocks weighted by
    E[h_n^(m)]/m!, the deformation the one-triple blocks weighted by
    E[h_n''']/6 (the terms of :func:`check_decompose_label`); the remainder
    is what is left of the full matrix.

    ``sums`` is the :func:`power_sums` table of the layout's W and X up to
    at least max(h.degree, 1), never written.  The block sums are folded into
    their parts one :func:`_block_tile` at a time, so no full-size block sum
    is built; then only S_1 = W@X is kept and the table is dropped before the
    Horner step's scaled copy of S_1, which frees a table passed as a
    temporary.
    """
    terms = check_decompose_label(h)
    if any(m not in sums for m in range(1, max(h.degree, 1) + 1)) or sums[1].shape != (layout.N1, layout.N2):
        raise ValueError("decompose needs a power-sum table of N1 x N2 matrices up to max(h.degree, 1)")
    shape = (layout.N1, layout.N2)
    gamma = math.sqrt(layout.N0) / layout.N  # sqrt(psi0)/sqrt(N)
    lin, deform = np.zeros(shape), np.zeros(shape)  # each term is added, as to a whole-matrix sum
    per = {part: np.empty(shape) for part, *_ in terms if part not in ("lin", "def")}
    into = {"lin": lin, "def": deform, **per}
    acc, buf = np.empty_like(sums[1][:_ROW_TILE]), np.empty_like(sums[1][:_ROW_TILE])
    u = z = None  # the views and tiles are dropped after the last tile
    for start in range(0, layout.N1, _ROW_TILE):
        rows = slice(start, start + _ROW_TILE)
        u = {m: s[rows] for m, s in sums.items()}
        fresh = set(per)  # an order's first term is assigned, the later ones added
        for part, parts, n, coeff in terms:
            z = _block_tile(parts, u, acc[: len(u[1])], buf).astype(float, copy=False)
            z *= coeff * (gamma * float(layout.N0) ** (-n / 2))
            if part in fresh:
                into[part][rows] = z
                fresh.remove(part)
            else:
                into[part][rows] += z
    del u, z, acc, buf
    # pw_matrix's Horner step on W@X from the table, in new arrays
    s1 = sums[1]
    del sums
    inner = (s1 / math.sqrt(layout.N0)).astype(float, copy=False)
    del s1
    total = _horner(h, inner, layout)
    eps = total - lin
    for mat in (deform, *per.values()):
        eps -= mat
    return Decomposition(lin=lin, per=per, deformation=deform, eps=eps, total=total)


# -- Gaussian equivalents -------------------------------------------------------


class EquivalentCells(NamedTuple):
    """One label's float coefficient cells, each table as rows over the w-row cells."""

    lin: tuple[tuple[float, ...], ...]
    chaos: tuple[tuple[int, tuple[tuple[float, ...], ...]], ...]
    deformation: tuple[tuple[float, ...], ...] | None


@lru_cache(maxsize=None)
def _equivalent_cells(h: Polynomial, ensemble: ProfiledEnsemble) -> EquivalentCells:
    """The coefficient plan of ``h``'s equivalent on ``ensemble``, built once and shared by every trial.

    ``lin`` holds E[h'(mu xi)]; ``chaos`` one (m, cells) pair per order
    2 <= m <= deg h whose cells are not all exactly zero, ascending; and
    ``deformation`` m3 lambda_3 E[h^(3)(mu xi)] / 6, or None when m3 or
    h^(3) vanishes.  The order-m chaos cell is mu^m E[h^(m)(mu xi)]/m!, the
    m-th Hermite coefficient of t -> h(t mu), times the noise scale
    sqrt(psi0 * m!).  Each cell is computed exactly, and the tables are fitted
    to floats in this order, so a ValueError names the first table and cell
    past the float range.
    """
    kernels = cell_kernels(ensemble.profile_w, ensemble.profile_x, ensemble.layout.N0)

    def fit(name: str, value: Callable) -> tuple[tuple[float, ...], ...]:
        cells = {rc: _fit_float(f"the {name} coefficient of profile cell {rc}", lambda: value(rc)) for rc in kernels.k2}
        return kernels.rows(cells)

    lin = fit("linear", kernels.expect(h.derivative(1)).get)
    chaos = []
    for m in range(2, h.degree + 1):
        scale = math.sqrt(float(ensemble.layout.N0) / ensemble.layout.N * math.factorial(m))  # sqrt(psi0 * m!)
        base = kernels.expect(h.derivative(m))  # exact rationals
        cells = fit(
            f"order-{m} chaos", lambda rc: scale * float(kernels.k2[rc]) ** (m / 2) * float(base[rc]) / math.factorial(m)
        )
        if any(any(row) for row in cells):  # adding 0 * Z_m would change no entry
            chaos.append((m, cells))
    m3 = ensemble.law_w.m3 * ensemble.law_x.m3
    deformation = None if m3 == 0 or h.degree < 3 else fit("deformation", kernels.deformation(h, m3 / 6).get)
    return EquivalentCells(lin, tuple(chaos), deformation)


def equivalent_lin(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """Linear equivalent: E[h'(mu xi)] cellwise, times a profiled Wishart factor.

    The Gaussian factors are sampled independently of everything else from
    the (seed, lin) streams.
    """
    lay = ensemble.layout
    w_gau = np.random.default_rng([seed, STREAM_LIN_W]).standard_normal((lay.N1, lay.N0))
    x_gau = np.random.default_rng([seed, STREAM_LIN_X]).standard_normal((lay.N0, lay.N2))
    w_gau, x_gau = _scale_cells(w_gau, _float_grid(ensemble.profile_w)), _scale_cells(x_gau, _float_grid(ensemble.profile_x))
    product = w_gau @ x_gau
    out = _scale_cells(product, _equivalent_cells(h, ensemble).lin)
    out /= lay.N
    return out


def per_matrix(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """Full chaos equivalent: the sum over the plan's chaos orders m of their cells times Z_m / sqrt(N).

    Z_m comes from its own (seed, per, m) stream, so an order left out of the
    plan draws nothing and moves no other draw.  The first term is assigned.
    """
    lay = ensemble.layout
    out = None
    for m, cells in _equivalent_cells(h, ensemble).chaos:
        term = _scale_cells(np.random.default_rng([seed, STREAM_PER, m]).standard_normal((lay.N1, lay.N2)), cells)
        term /= math.sqrt(lay.N)
        out = term if out is None else np.add(out, term, out=out)
    return np.zeros((lay.N1, lay.N2)) if out is None else out


def equivalent_sum(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """equivalent_lin + per_matrix + the plan's deformation cells broadcast and divided by N.

    The deformation, third moments times the cubed-profile factor, has
    entries of order 1/N; it is left out when m3 or h^(3) vanishes.
    """
    out = equivalent_lin(h, ensemble, seed)
    out += per_matrix(h, ensemble, seed)
    cells = _equivalent_cells(h, ensemble).deformation
    if cells is not None:
        out += _broadcast_cells(cells, out.shape) / ensemble.layout.N
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
