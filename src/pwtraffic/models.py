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

Entrywise coefficients for the equivalents are computed as exact rationals
per distinct profile-cell value (step profiles have few cells), once per
(polynomial, ensemble): ensembles and polynomials are frozen and hashable,
and the cell values are cached.  Profiles and coefficients are applied to a
sampled matrix in place, one contiguous cell block at a time, so no realized
profile matrix is built; the only floating-point step is one square root per
cell.  The cell-level second-moment scale is normalized by the inner
dimension (so it equals 1 for constant profiles); the N-normalized
``lambda_ell`` matrices are exposed separately and differ by a factor
psi0 = N0/N.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hermite import Polynomial, expect_derivative, expect_scaled, gaussian_moment
from .partitions import IntegerPartition, enumerate_set_partitions
from .traffic import BlockLayout, MatrixFamily

# RNG stream tags (seed, tag, ...) for independent components.
STREAM_W = 1
STREAM_X = 2
STREAM_LIN_W = 11
STREAM_LIN_X = 12
STREAM_PER = 20  # (seed, STREAM_PER, order)

_MAX_Z_PARTS = 8


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        u = rng.random(shape)
        return np.where(u < float(self.p), float(self.a), float(self.b))

    def to_json(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian"}
        if self.kind == "rademacher":
            return {"kind": "rademacher"}
        return {"kind": self.kind, "a": str(self.a), "b": str(self.b), "p": str(self.p)}

    @staticmethod
    def from_json(obj: dict) -> "EntryLaw":
        kind = obj["kind"]
        if kind == "gaussian":
            return EntryLaw.gaussian()
        if kind == "rademacher":
            return EntryLaw.rademacher()
        if kind == "skewed_two_point":
            return EntryLaw.skewed_two_point(Fraction(obj["a"]), Fraction(obj["b"]), Fraction(obj["p"]))
        raise ValueError(f"unknown entry law kind {kind!r}")


def unit_skewed_law() -> EntryLaw:
    """The two-point law with values (2, -1/2), probabilities (1/5, 4/5).

    Centered, unit variance, third moment 3/2.
    """
    return EntryLaw.skewed_two_point(2, Fraction(-1, 2), Fraction(1, 5))


# -- step profiles -----------------------------------------------------------


def _cell_of(i: int, total: int, k: int) -> int:
    """0-based cell of 0-based row i among k cells over `total` rows."""
    return ((i + 1) * k + total - 1) // total - 1


@lru_cache(maxsize=None)
def _cell_slices(total: int, k: int) -> tuple[slice, ...]:
    """The contiguous rows of each of k cells over `total` rows (as _cell_of)."""
    return tuple(slice(r * total // k, (r + 1) * total // k) for r in range(k))


def _scale_cells(a: np.ndarray, cells: Sequence[Sequence[float]]) -> np.ndarray:
    """Multiply each cell block of ``a`` in place by its value; returns ``a``.

    Entry for entry the product of ``a`` with the broadcast cell matrix,
    without building that matrix.
    """
    rows = _cell_slices(a.shape[0], len(cells))
    cols = _cell_slices(a.shape[1], len(cells[0]))
    for rs, row in zip(rows, cells):
        for cs, v in zip(cols, row):
            if v != 1:
                a[rs, cs] *= v
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

    def row_cells(self, rows: int) -> list[int]:
        return [_cell_of(i, rows, self.n_row_cells) for i in range(rows)]

    def col_cells(self, cols: int) -> list[int]:
        return [_cell_of(j, cols, self.n_col_cells) for j in range(cols)]

    def realize(self, rows: int, cols: int) -> np.ndarray:
        return _broadcast_cells(self.grid, (rows, cols))

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Multiply ``a`` in place by this profile realized on its shape.

        Entry for entry ``realize(*a.shape) * a``; returns ``a``.
        """
        return _scale_cells(a, _float_grid(self))

    def value(self, r: int, c: int) -> Fraction:
        return self.grid[r][c]

    def to_json(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.grid]

    @staticmethod
    def from_json(data: Sequence[Sequence]) -> "StepProfile":
        return StepProfile.of(data)


@lru_cache(maxsize=None)
def _float_grid(profile: StepProfile) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in profile.grid)


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

    def to_json(self) -> dict:
        lay = self.layout
        return {
            "N0": lay.N0,
            "N1": lay.N1,
            "N2": lay.N2,
            "law_w": self.law_w.to_json(),
            "law_x": self.law_x.to_json(),
            "profile_w": self.profile_w.to_json(),
            "profile_x": self.profile_x.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "ProfiledEnsemble":
        sizes = []
        for key in ("N0", "N1", "N2"):
            n = obj[key]
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {n!r}")
            sizes.append(n)
        return ProfiledEnsemble(
            layout=BlockLayout(*sizes),
            law_w=EntryLaw.from_json(obj["law_w"]),
            law_x=EntryLaw.from_json(obj["law_x"]),
            profile_w=StepProfile.from_json(obj["profile_w"]),
            profile_x=StepProfile.from_json(obj["profile_x"]),
        )


def pw_matrix(h: Polynomial, w: np.ndarray, x: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """sqrt(psi0)/sqrt(N) times the entrywise evaluation of h on WX/sqrt(N0)."""
    n1, n0 = w.shape
    n0x, n2 = x.shape
    if n0 != n0x or (n1, n0, n2) != (layout.N1, layout.N0, layout.N2):
        raise ValueError("matrix shapes do not match the layout")
    inner = (w @ x) / math.sqrt(layout.N0)
    coeffs = [float(c) for c in h.power_coeffs]
    if not coeffs:
        return np.zeros((n1, n2))
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


def all_pairs(n: int) -> IntegerPartition:
    if n % 2:
        raise ValueError("pair partitions need an even total")
    return IntegerPartition.of([2] * (n // 2))


def power_sums(w: np.ndarray, x: np.ndarray, top: int) -> dict[int, np.ndarray]:
    """The table m -> (W^{om}) (X^{om}) for m = 1..top; exact on integer inputs.

    The entrywise powers are built by repeated multiplication and only the
    current pair is kept alive, so the table costs ``top`` matmuls and
    ``top`` result matrices.
    """
    w = np.asarray(w)
    x = np.asarray(x)
    if np.issubdtype(w.dtype, np.integer) and np.issubdtype(x.dtype, np.integer):
        w = w.astype(object)
        x = x.astype(object)
    table: dict[int, np.ndarray] = {}
    w_m, x_m = w, x
    for m in range(1, top + 1):
        if m > 1:
            w_m = w_m * w
            x_m = x_m * x
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
    for sigma in enumerate_set_partitions(len(parts)):
        weight = 1
        sums = []
        for block in sigma.blocks:
            weight *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
            sums.append(sum(parts[k - 1] for k in block))
        key = tuple(sorted(sums, reverse=True))
        grouped[key] = grouped.get(key, 0) + weight
    return tuple((c, key) for key, c in grouped.items() if c != 0)


def z_lambda(
    lam: IntegerPartition,
    w: np.ndarray,
    x: np.ndarray,
    i_range: Sequence[int] | None = None,
    j_range: Sequence[int] | None = None,
    sums: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Distinct-index block sum over the inner dimension.

    Entry (i, j) sums, over tuples of pairwise distinct inner indices (one
    per part), the product over parts of (W(i, d) X(d, j))^part.  Computed by
    inclusion-exclusion over coincidence patterns of the parts, grouped by
    the multiset of block sums (:func:`inclusion_exclusion_terms`), which
    reduces every term to entrywise products of W^{om} X^{om} matrices; exact
    on integer inputs.  Depends only on the partition, not on a
    representative.

    ``sums`` is a :func:`power_sums` table of (W, X) up to at least
    ``lam.total``, shared across calls on the same matrices; with it, the
    row and column ranges must be left unset.
    """
    parts = lam.parts
    b = len(parts)
    if b > _MAX_Z_PARTS:
        raise ValueError(f"z_lambda guarded at {_MAX_Z_PARTS} parts, got {b}")
    if sums is None:
        w = np.asarray(w)
        x = np.asarray(x)
        if i_range is not None:
            w = w[np.asarray(i_range), :]
        if j_range is not None:
            x = x[:, np.asarray(j_range)]
        sums = power_sums(w, x, lam.total)
    elif i_range is not None or j_range is not None:
        raise ValueError("row and column ranges cannot be applied to a shared power-sum table")
    elif lam.total not in sums:
        raise ValueError(f"power-sum table stops below {lam.total}")
    total = 0
    for coeff, block_sums in inclusion_exclusion_terms(parts):
        term = sums[block_sums[0]]
        for m in block_sums[1:]:
            term = term * sums[m]
        total = total + coeff * term
    return total


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
        out = self.lin + self.deformation + self.eps
        for m in self.per.values():
            out = out + m
        return out


def decompose(h: Polynomial, w: np.ndarray, x: np.ndarray, layout: BlockLayout) -> Decomposition:
    """Four-part split of the model matrix along distinct-index block types.

    The linear part collects the single-free-index blocks weighted by
    E[h_n'], the order-m perturbative parts the m-ones blocks weighted by
    E[h_n^(m)]/m!, the deformation the one-triple blocks weighted by
    E[h_n''']/6; the remainder is what is left of the full matrix.
    """
    if not h.is_odd:
        raise ValueError("decompose expects an odd polynomial")
    if h.degree > 7:
        raise ValueError("decompose guarded at degree 7")
    shape = (layout.N1, layout.N2)
    gamma = math.sqrt(layout.N0) / layout.N  # sqrt(psi0)/sqrt(N)
    lin = np.zeros(shape)
    per: dict[int, np.ndarray] = {}
    deform = np.zeros(shape)
    sums = power_sums(w, x, h.degree)
    for n, a_n in enumerate(h.power_coeffs):
        if a_n == 0:
            continue
        hn = Polynomial([0] * n + [1])
        scale = gamma * float(layout.N0) ** (-n / 2)
        c_lin = expect_derivative(hn, 1)
        if c_lin != 0:
            lin = lin + float(a_n * c_lin) * scale * z_lambda(ones_and_pairs(n, 1), w, x, sums=sums).astype(float)
        for m in range(2, n + 1):
            c_m = expect_derivative(hn, m) / math.factorial(m)
            if c_m == 0:
                continue
            term = float(a_n * c_m) * scale * z_lambda(ones_and_pairs(n, m), w, x, sums=sums).astype(float)
            per[m] = per.get(m, np.zeros(shape)) + term
        if n >= 3:
            c_def = expect_derivative(hn, 3) / 6
            if c_def != 0:
                deform = deform + float(a_n * c_def) * scale * z_lambda(triple_and_pairs(n), w, x, sums=sums).astype(float)
    total = pw_matrix(h, w, x, layout)
    eps = total - lin - deform
    for mat in per.values():
        eps = eps - mat
    return Decomposition(lin=lin, per=per, deformation=deform, eps=eps, total=total)


# -- profile cell machinery -----------------------------------------------------


@lru_cache(maxsize=None)
def _lambda_cells(
    profile_w: StepProfile,
    profile_x: StepProfile,
    layout: BlockLayout,
    ell: int,
    denominator: int,
) -> tuple[tuple[Fraction, ...], ...]:
    """Cellwise (1/denominator) sum_d gamma_w(r,d)^ell gamma_x(d,c)^ell."""
    # how many inner indices fall in each (w-column-cell, x-row-cell) pair
    counts: dict[tuple[int, int], int] = {}
    for key in zip(profile_w.col_cells(layout.N0), profile_x.row_cells(layout.N0)):
        counts[key] = counts.get(key, 0) + 1
    out = []
    for rw in range(profile_w.n_row_cells):
        row = []
        for cx in range(profile_x.n_col_cells):
            acc = Fraction(0)
            for (cw, rx), cnt in counts.items():
                acc += cnt * profile_w.value(rw, cw) ** ell * profile_x.value(rx, cx) ** ell
            row.append(acc / denominator)
        out.append(tuple(row))
    return tuple(out)


def _mu_sq_cells(ensemble: ProfiledEnsemble) -> tuple[tuple[Fraction, ...], ...]:
    return _lambda_cells(ensemble.profile_w, ensemble.profile_x, ensemble.layout, 2, ensemble.layout.N0)


def lambda_ell(
    profile_w: StepProfile, profile_x: StepProfile, layout: BlockLayout, ell: int
) -> np.ndarray:
    """N^{-1} (Gamma_w ^ o ell) (Gamma_x ^ o ell) as a realized N1 x N2 matrix."""
    if ell not in (2, 3):
        raise ValueError("lambda_ell supports ell in {2, 3}")
    cells = _lambda_cells(profile_w, profile_x, layout, ell, layout.N)
    return _broadcast_cells(cells, (layout.N1, layout.N2))


def second_moment_cells(ensemble: ProfiledEnsemble) -> list[list[Fraction]]:
    """Cellwise squared scale mu^2 = (1/N0) sum_d gamma_w^2 gamma_x^2.

    Equals 1 on every cell for constant unit profiles; the entrywise square
    root of the N-normalized lambda_2 matrix rescaled by 1/psi0.
    """
    return [list(row) for row in _mu_sq_cells(ensemble)]


def second_moment_profile(ensemble: ProfiledEnsemble) -> np.ndarray:
    """Realized entrywise scale matrix (square root of second_moment_cells)."""
    root = [[math.sqrt(float(v)) for v in row] for row in _mu_sq_cells(ensemble)]
    return _broadcast_cells(root, (ensemble.layout.N1, ensemble.layout.N2))


# -- Gaussian equivalents -------------------------------------------------------
#
# The coefficient cells depend only on (h, ensemble[, m]) and are cached, so
# every sampled trial reuses them.


@lru_cache(maxsize=None)
def _lin_coefficient_cells(h: Polynomial, ensemble: ProfiledEnsemble) -> tuple[tuple[float, ...], ...]:
    """Cellwise E[h'(mu xi)] for the linear equivalent."""
    deriv = h.derivative(1)
    return tuple(tuple(float(expect_scaled(deriv, mu_sq)) for mu_sq in row) for row in _mu_sq_cells(ensemble))


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
    psi0 = float(lay.N0) / lay.N
    deriv = h.derivative(m)
    out = []
    for row in _mu_sq_cells(ensemble):
        line = []
        for mu_sq in row:
            base = expect_scaled(deriv, mu_sq)  # exact rational
            mu_m = float(mu_sq) ** (m / 2)
            line.append(math.sqrt(psi0 * math.factorial(m)) * mu_m * float(base) / math.factorial(m))
        out.append(tuple(line))
    return tuple(out)


def equivalent_per(h: Polynomial, ensemble: ProfiledEnsemble, m: int, seed: int) -> np.ndarray:
    """Order-m chaos equivalent: coefficient cells times Z_m / sqrt(N).

    The Z_m are independent standard Gaussian matrices across orders, drawn
    from the (seed, per, m) streams.
    """
    if m < 2:
        raise ValueError("chaos orders start at m = 2")
    lay = ensemble.layout
    if h.degree < m:
        return np.zeros((lay.N1, lay.N2))
    z_m = np.random.default_rng([seed, STREAM_PER, m]).standard_normal((lay.N1, lay.N2))
    out = _scale_cells(z_m, _per_coefficient_cells(h, ensemble, m))
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


def per_matrix(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """Full chaos equivalent: sum of order components over 2 <= m <= deg h."""
    out = np.zeros((ensemble.layout.N1, ensemble.layout.N2))
    for m in range(2, h.degree + 1):
        out += equivalent_per(h, ensemble, m, seed)
    return out


@lru_cache(maxsize=None)
def _def_cells(h: Polynomial, ensemble: ProfiledEnsemble) -> tuple[tuple[Fraction, ...], ...] | None:
    """Cellwise m3 lambda_3 E[h^(3)(mu xi)] / 6, or None when m3 or h^(3) vanishes."""
    m3 = ensemble.law_w.m3 * ensemble.law_x.m3
    if m3 == 0 or h.degree < 3:
        return None
    lay = ensemble.layout
    lam3 = _lambda_cells(ensemble.profile_w, ensemble.profile_x, lay, 3, lay.N0)
    deriv = h.derivative(3)
    return tuple(
        tuple(m3 / 6 * l3 * expect_scaled(deriv, mu_sq) for l3, mu_sq in zip(row3, row2))
        for row3, row2 in zip(lam3, _mu_sq_cells(ensemble))
    )


def equivalent_def(h: Polynomial, ensemble: ProfiledEnsemble) -> np.ndarray:
    """Deterministic deformation: third moments times the cubed-profile factor.

    Entries are O(1/N); the zero matrix whenever either entry law has
    vanishing third moment.
    """
    lay = ensemble.layout
    cells = _def_cells(h, ensemble)
    if cells is None:
        return np.zeros((lay.N1, lay.N2))
    out = _broadcast_cells(cells, (lay.N1, lay.N2))
    out /= lay.N
    return out


def equivalent_sum(h: Polynomial, ensemble: ProfiledEnsemble, seed: int) -> np.ndarray:
    """equivalent_lin + all chaos orders + equivalent_def."""
    out = equivalent_lin(h, ensemble, seed)
    out += per_matrix(h, ensemble, seed)
    out += equivalent_def(h, ensemble)
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


# -- flat binary dumps -----------------------------------------------------------


def write_matrix(path, a: np.ndarray) -> None:
    """Row-major float64 dump with an 8-byte (rows, cols) uint32 header."""
    a = np.asarray(a, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", a.shape[0], a.shape[1]))
        fh.write(a.tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        rows, cols = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(), dtype=np.float64)
    return data.reshape(rows, cols)
