"""Finite-N trace definitions that only the tests use.

The injective trace, the Moebius identity between the combinatorial and
injective traces, the exact injective-map average ``delta0``, block
embedding, graph monomials evaluated as one memo-free einsum
(``contract_oracle``, the oracle of ``traffic._contract``) and a
``tau_estimates`` map_fn that records the per-trial values
(``recording_map``).  Scalars stay exact on exact matrices, so the Moebius
identity is asserted with zero tolerance, between two independent
enumerations: ``combinatorial_trace`` and ``injective_trace``.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pwtraffic.graphs import TestGraph, quotient, split_partitions
from pwtraffic.traffic import BlockLayout, MatrixFamily, combinatorial_trace
from graphs_oracle import GraphMonomial


def _block_start(layout: BlockLayout, block: int) -> int:
    return (0, layout.N0, layout.N0 + layout.N1)[block]


def embed(a: np.ndarray, blocks: tuple[int, int], layout: BlockLayout) -> np.ndarray:
    """Place a rectangular matrix in block (row, col) of an N x N matrix."""
    row, col = blocks
    a = np.asarray(a)
    if a.shape != (layout.size(row), layout.size(col)):
        raise ValueError(f"matrix shape {a.shape} does not fit block ({row},{col})")
    out = np.zeros((layout.N, layout.N), dtype=a.dtype)
    out[_block_start(layout, row) : _block_start(layout, row) + layout.size(row),
        _block_start(layout, col) : _block_start(layout, col) + layout.size(col)] = a
    return out


def extract(a: np.ndarray, blocks: tuple[int, int], layout: BlockLayout) -> np.ndarray:
    row, col = blocks
    return np.asarray(a)[_block_start(layout, row) : _block_start(layout, row) + layout.size(row),
                         _block_start(layout, col) : _block_start(layout, col) + layout.size(col)]


def injective_trace(g: TestGraph, family: MatrixFamily) -> object:
    """Combinatorial trace restricted to injective split labelings.

    An enumeration of its own, apart from ``combinatorial_trace``: it goes
    over every split labeling (a vertex of color c ranges over [N_c]), skips
    those that give two vertices of one color the same index, and reads the
    entries through ``tolist()``, so integer matrices give an exact int.
    """
    pos = {v: i for i, v in enumerate(g.vertex_ids)}
    edges = [(pos[e.dst], pos[e.src], family[e.label].matrix.tolist()) for e in g.edges]
    colors = [g.color[v] for v in g.vertex_ids]
    total = 0
    for labels in itertools.product(*(range(family.layout.size(c)) for c in colors)):
        if len(set(zip(colors, labels))) < len(labels):
            continue
        term = 1
        for dst, src, m in edges:
            term = term * m[labels[dst]][labels[src]]
        total += term
    return total


@dataclass(frozen=True)
class MoebiusReport:
    lhs: object
    rhs: object
    equal: bool


def moebius_check(g: TestGraph, family: MatrixFamily) -> MoebiusReport:
    """Combinatorial trace vs the sum of injective traces over split quotients.

    Exact integer equality when the inputs are integer matrices.
    """
    if len(g.vertices) > 8:
        raise ValueError("moebius_check guarded at 8 vertices")
    lhs = combinatorial_trace(g, family)
    rhs = 0
    for pi in split_partitions(g):
        rhs += injective_trace(quotient(g, pi), family)
    return MoebiusReport(lhs=lhs, rhs=rhs, equal=lhs == rhs)


def falling_factorial(m: int, n: int) -> int:
    out = 1
    for k in range(n):
        out *= m - k
    return out


def _color_counts(g: TestGraph) -> tuple[int, int, int]:
    counts = [0, 0, 0]
    for _, c in g.vertices:
        counts[c] += 1
    return tuple(counts)


def delta0(g: TestGraph, family: MatrixFamily) -> object:
    """Mean edge-entry product under a uniform injective split labeling.

    The injective trace divided by the number of injective split maps,
    (N0)_{v0} (N1)_{v1} (N2)_{v2}: a Fraction on integer matrices.  Guarded
    at 1e6 maps.
    """
    counts = _color_counts(g)
    n_maps = math.prod(falling_factorial(family.layout.size(c), counts[c]) for c in range(3))
    if n_maps == 0:
        raise ValueError("no injective split maps exist: a color has more vertices than its block")
    if n_maps > 10**6:
        raise ValueError(f"exact delta0 guarded at 1e6 maps, got {n_maps}")
    total = injective_trace(g, family)
    if isinstance(total, int):
        return Fraction(total, n_maps)
    return total / n_maps


def contract_oracle(g: TestGraph, family: MatrixFamily, open_vertices: tuple = ()) -> np.ndarray:
    """Oracle: the whole contraction as one memo-free einsum along its greedy path.

    Vertices in ``open_vertices`` stay as output axes in that order; any
    other vertex without edges contributes its block size as a factor.
    """
    letter = dict(zip(g.vertex_ids, string.ascii_letters))
    inputs, operands = [], []
    for e in g.edges:
        m = family[e.label].matrix
        if e.src == e.dst:
            inputs.append(letter[e.src])
            operands.append(np.diagonal(m))
        else:
            inputs.append(letter[e.dst] + letter[e.src])
            operands.append(m)
    touched = {v for e in g.edges for v in (e.src, e.dst)}
    scale = 1
    for v in g.vertex_ids:
        if v in touched:
            continue
        size = family.layout.size(g.color[v])
        if v in open_vertices:
            inputs.append(letter[v])
            operands.append(np.ones(size))
        else:
            scale *= size
    if not operands:
        return np.asarray(scale)
    subscripts = ",".join(inputs) + "->" + "".join(letter[v] for v in open_vertices)
    path = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
    return np.einsum(subscripts, *operands, optimize=path) * scale


def eval_monomial(mono: GraphMonomial, family: MatrixFamily) -> np.ndarray:
    """Evaluate a graph monomial to a rectangular float matrix.

    Entry (i, j) sums the edge-entry product over split labelings with the
    output pinned to i and the input pinned to j; rows live in the output
    vertex's block, columns in the input vertex's block.  When input and
    output coincide the matrix is diagonal.
    """
    if mono.input == mono.output:
        return np.diag(contract_oracle(mono.graph, family, (mono.output,))).astype(float)
    return np.asarray(contract_oracle(mono.graph, family, (mono.output, mono.input)), dtype=float)


def recording_map(values: list[list]):
    """A ``tau_estimates`` map_fn that runs trials in order and extends ``values[k]`` with graph k's per-trial values."""

    def map_fn(fn, trials):
        rows = list(map(fn, trials))
        for k, column in enumerate(zip(*rows)):
            values[k].extend(column)
        return rows

    return map_fn
