"""Numerical trace engine: graph evaluation in matrix families.

The exact combinatorial trace enumerates every split vertex labeling, with
early termination on zero partial products, and has no other mode; a naive
all-maps loop in the tests is its oracle.  Scalars stay exact (Python ints,
Fractions) whenever the input matrices are exact.  Sampled traces are one
einsum contraction each (:func:`_contract`), checked against the
enumeration.  Importing this module changes two glibc heap settings for the
whole process (:func:`_keep_freed_heap`).
"""

from __future__ import annotations

import ctypes
import math
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .graphs import TestGraph
from .hermite import _clip

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> bool:
    """Stop glibc from giving freed heap memory back to the OS (``man 3 mallopt``).

    glibc serves a block past its mmap threshold from fresh mmap pages and
    unmaps it when freed, and trims the heap top past its trim threshold, so
    a matrix remade every trial page-faults on its first write.  With these
    settings blocks below 32 MiB come from the heap, and up to 1 GiB of free
    heap top is kept.  The trim threshold is set only once the mmap
    threshold took: set alone, it would freeze glibc's dynamic mmap
    threshold where it stands (128 KiB at start).  True when both took;
    False, doing nothing, off Linux or where the C library has no
    ``mallopt``.  The settings hold for every library in the process, and no
    drawn number, trace or report depends on them.
    """
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 1 << 30))


_keep_freed_heap()


@dataclass(frozen=True)
class BlockLayout:
    """Sizes of the three index blocks inside [N], in block order 0, 1, 2."""

    N0: int
    N1: int
    N2: int

    def __post_init__(self) -> None:
        if min(self.N0, self.N1, self.N2) < 0:
            raise ValueError("block sizes must be >= 0")

    @property
    def N(self) -> int:
        return self.N0 + self.N1 + self.N2

    def size(self, block: int) -> int:
        return (self.N0, self.N1, self.N2)[block]

    def psi(self, block: int) -> Fraction:
        """Empirical ratio N_block / N."""
        return Fraction(self.size(block), self.N)


@dataclass(frozen=True, eq=False)
class LabeledMatrix:
    """Rectangular matrix with its source and target block indices.

    Shape is (N_dst, N_src): an edge labeled by this matrix evaluates
    matrix[phi(target), phi(source)] in block-local coordinates.
    """

    matrix: np.ndarray
    src_block: int
    dst_block: int


class MatrixFamily:
    """Label -> rectangular matrix with declared blocks, over one layout."""

    def __init__(self, layout: BlockLayout) -> None:
        self.layout = layout
        self.items: dict[object, LabeledMatrix] = {}

    def add(self, label: object, matrix, src_block: int, dst_block: int) -> "MatrixFamily":
        matrix = np.asarray(matrix)
        want = (self.layout.size(dst_block), self.layout.size(src_block))
        if matrix.shape != want:
            raise ValueError(f"label {label!r}: shape {matrix.shape}, blocks demand {want}")
        self.items[label] = LabeledMatrix(matrix, src_block, dst_block)
        return self

    def __getitem__(self, label: object) -> LabeledMatrix:
        if label not in self.items:
            raise KeyError(f"unresolved label {label!r}")
        return self.items[label]


def combinatorial_trace(g: TestGraph, family: MatrixFamily) -> object:
    """Sum over split vertex labelings of the product of edge entries.

    Labelings are block-local (vertex of color c ranges over [N_c]); with
    embedded matrices this equals the sum over all of [N] except for the
    block-size factor on isolated vertices, which follows the vertex color.
    """
    order = g.vertex_ids
    pos = {v: i for i, v in enumerate(order)}
    ready: list[list[tuple[int, int, list]]] = [[] for _ in order]
    for e, m in zip(g.edges, _checked_matrices(g, family)):
        ready[max(pos[e.src], pos[e.dst])].append((pos[e.dst], pos[e.src], m.tolist()))
    sizes = [family.layout.size(g.color[v]) for v in order]
    assign = [0] * len(order)

    def rec(i: int, partial):
        if i == len(order):
            return partial
        total = 0
        for val in range(sizes[i]):
            assign[i] = val
            prod = partial
            for dst_i, src_i, mat in ready[i]:
                prod = prod * mat[assign[dst_i]][assign[src_i]]
                if prod == 0:
                    break
            if prod != 0:
                total += rec(i + 1, prod)
        return total

    return rec(0, 1)


# -- einsum contraction ------------------------------------------------------


def _checked_matrices(g: TestGraph, family: MatrixFamily) -> list[np.ndarray]:
    """Per-edge matrices; validates that label blocks match endpoint colors."""
    out = []
    for e in g.edges:
        lm = family[e.label]
        if g.color[e.dst] != lm.dst_block or g.color[e.src] != lm.src_block:
            raise ValueError(
                f"edge {e.id!r}: label {e.label!r} demands blocks "
                f"({lm.dst_block},{lm.src_block}) but endpoints are colored "
                f"({g.color[e.dst]},{g.color[e.src]})"
            )
        out.append(lm.matrix)
    return out


_PAIR = ["einsum_path", (0, 1)]


@lru_cache(maxsize=256)
def _contraction_plan(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The greedy pairwise path of one einsum, as numpy's optimized einsum runs it.

    Each step is (positions, call, key, perm): the operand positions numpy
    pops, the einsum call that computes the step in canonical form (inputs
    renamed in order of first appearance, outputs in that order), the
    canonical subscripts that key the step, and the transposition from the
    canonical output to numpy's intermediate axis order (None if none).  A
    pair is passed last operand first, so that ``np.einsum`` hands it to its
    pairwise kernel in numpy's own order.
    """
    dummies = [np.broadcast_to(np.zeros(()), shape) for shape in shapes]
    path = np.einsum_path(subscripts, *dummies, optimize="greedy")[0][1:]
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    size = {c: d for term, shape in zip(terms, shapes) for c, d in zip(term, shape)}
    steps = []
    for k, positions in enumerate(path):
        positions = tuple(sorted(positions, reverse=True))
        taken = [terms.pop(p) for p in positions]
        if k == len(path) - 1:
            result = output
        else:  # numpy orders an intermediate's axes by (size, subscript)
            kept = set(output).union(*terms) & set("".join(taken))
            result = "".join(sorted(kept, key=lambda c: (size[c], c)))
        terms.append(result)
        rename: dict[str, str] = {}
        for c in "".join(taken):
            rename.setdefault(c, _LETTERS[len(rename)])
        canon_terms = ["".join(rename[c] for c in t) for t in taken]
        canon_out = "".join(rename[c] for c in rename if c in result)
        key = ",".join(canon_terms) + "->" + canon_out
        call = ",".join(reversed(canon_terms)) + "->" + canon_out if len(taken) == 2 else key
        perm = tuple(canon_out.index(rename[c]) for c in result)
        steps.append((positions, call, key, None if perm == tuple(range(len(perm))) else perm))
    return tuple(steps)


def _contract(g: TestGraph, family: MatrixFamily) -> np.ndarray:
    """Sum over split labelings of g of the edge-entry product, as one einsum
    run one pairwise step at a time.

    Every vertex is one index over its color's block.  An edge contributes
    its matrix with subscripts (dst, src), a self-loop its diagonal, so
    parallel edges become entrywise products and paths and cycles matrix
    products along a greedy pairwise path, cached per subscripts and shapes
    (the opt_einsum scheme, Smith & Gray, JOSS 2018).  A vertex without
    edges contributes its block size as a factor.

    The path runs step by step through a memo local to the call.  A step is
    keyed by its canonical subscripts and its operand tokens (a label and a
    diagonal flag for a leaf, the making step's key and axis permutation
    for an intermediate), so a repeated subexpression, such as the Grams of
    a moment cycle, is computed once and reused as a transposed view.  A
    reused or canonically ordered intermediate can have another memory
    layout than the memo-free einsum's, which can change the last bit of a
    later step's sum; on the moment cycles the two agree bit for bit.
    """
    if len(g.vertices) > len(_LETTERS):
        raise ValueError(f"einsum contraction supports at most {len(_LETTERS)} vertices")
    letter = dict(zip(g.vertex_ids, _LETTERS))
    inputs, operands, tokens = [], [], []
    for e, m in zip(g.edges, _checked_matrices(g, family)):
        loop = e.src == e.dst
        inputs.append(letter[e.src] if loop else letter[e.dst] + letter[e.src])
        operands.append(np.diagonal(m) if loop else m)
        tokens.append((e.label, loop))
    touched = {v for e in g.edges for v in (e.src, e.dst)}
    scale = math.prod(family.layout.size(g.color[v]) for v in g.vertex_ids if v not in touched)
    if not operands:
        return np.asarray(scale)
    subscripts = ",".join(inputs) + "->"
    memo: dict = {}
    for positions, call, canonical, perm in _contraction_plan(subscripts, tuple(op.shape for op in operands)):
        args = [operands.pop(p) for p in positions]
        key = (canonical, *(tokens.pop(p) for p in positions))
        value = memo.get(key)
        if value is None:
            if len(args) == 2:
                value = np.einsum(call, args[1], args[0], optimize=_PAIR)
            else:
                value = np.einsum(call, *args)
            memo[key] = value
        operands.append(value if perm is None else value.transpose(perm))
        tokens.append((key, perm))
    out = operands[0]
    return out * scale if scale != 1 else out


def sample_trace(g: TestGraph, family: MatrixFamily) -> float:
    """Combinatorial trace of one realized family, as one einsum contraction.

    Sized for large N: the cost is a few matrix products per graph.  The
    labeling enumeration :func:`combinatorial_trace` is its exact oracle.
    """
    return float(_contract(g, family))


@dataclass(frozen=True)
class TauEstimate:
    mean: float
    std_error: float | None
    trials: int
    seed: int


def tau_estimates(
    graphs: Sequence[TestGraph] | Mapping[str, TestGraph],
    sampler: Callable[[np.random.Generator], MatrixFamily],
    trials: int,
    seed: int,
    map_fn: Callable | None = None,
) -> list[TauEstimate]:
    """Monte Carlo mean and standard error of N^{-1} * trace, one per graph.

    Trial t draws one family from a generator seeded by (seed, t) and
    evaluates every graph on it, so runs are reproducible, trials can be
    evaluated independently, and a graph's estimate does not depend on the
    other graphs requested with it.  Aggregation is always in trial order.
    std_error is the sample standard deviation over trials divided by
    sqrt(trials), None for a single trial.  map_fn lets a harness run
    trials concurrently (e.g. an executor's map); it must preserve order.
    It sees every trial's row of per-graph values, so a caller that wants
    the per-trial values records them there.  An error names a graph by its
    key when ``graphs`` maps names to graphs, else by its index.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    named = dict(graphs) if isinstance(graphs, Mapping) else dict(enumerate(graphs))
    graphs = list(named.values())

    def one_trial(t: int) -> list[float]:
        family = sampler(np.random.default_rng([seed, t]))
        return [sample_trace(g, family) / family.layout.N for g in graphs]

    rows = list((map_fn or map)(one_trial, range(trials)))
    out = []
    for k, name in enumerate(named):
        values = [row[k] for row in rows]
        mean = sum(values) / trials
        if not math.isfinite(mean):  # a non-finite trace or a sum past the float range; stdev raises on an inf
            raise ValueError(f"graph {_clip(name)}: the Monte Carlo mean is not a finite float")
        se = None if trials == 1 else statistics.stdev(values) / math.sqrt(trials)
        out.append(TauEstimate(mean=mean, std_error=se, trials=trials, seed=seed))
    return out

