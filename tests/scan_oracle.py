"""Reference exponent scans: enumerate every split partition, then filter.

The slow form of ``pwtraffic.limits.eta_support_scan``, kept as a test
oracle.  Every split partition of the auxiliary graph is built as a
``SetPartition``; the support filter regroups its edges (``edge_groups``)
and the exponent comes from ``graphs.eta``, which also runs the w-subgraph
union-find.  The validation and the partition guard are the scan's own.

``supported_splits`` is the pruned walk as a chain of generators, one per
internal vertex, yielding the labels of every supported partition: the
oracle of the flat walk ``limits._scan_splits``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from pwtraffic.graphs import (
    AuxiliaryGraph,
    TestGraph,
    build_auxiliary,
    classify,
    eta,
    has_centered_support,
    quotient,
    split_partitions,
)
from pwtraffic.limits import MAX_SCAN_PARTITIONS, EtaScanReport
from pwtraffic.partitions import SetPartition, bell_number, restrict, restricted_growth_strings


def eta_support_scan(ref: TestGraph, max_label: int = 5) -> EtaScanReport:
    if max_label > 5:
        raise ValueError("scan guarded at labels <= 5")
    for e in ref.edges:
        if not isinstance(e.label, int) or e.label < 1 or e.label > max_label:
            raise ValueError(f"edge {e.id!r} needs an integer label in 1..{max_label}")
        if e.label % 2 == 0:
            raise ValueError("the exponent bound holds for odd labels only")
    aux = build_auxiliary(ref)

    counts: dict[int, int] = {0: 0, 1: 0, 2: 0}
    for _, c in aux.graph.vertices:
        counts[c] += 1
    size = bell_number(counts[0]) * bell_number(counts[1]) * bell_number(counts[2])
    if size > MAX_SCAN_PARTITIONS:
        raise ValueError(f"scan would enumerate {size} partitions > {MAX_SCAN_PARTITIONS}")

    n_ref = len(ref.vertices)
    n_total = 0
    n_supported = 0
    max_eta: Fraction | None = None
    zero_partitions: list[SetPartition] = []
    violations: list[SetPartition] = []
    for pi in split_partitions(aux.graph):
        n_total += 1
        if not has_centered_support(aux, pi):
            continue
        n_supported += 1
        val = eta(aux, pi).eta
        if max_eta is None or val > max_eta:
            max_eta = val
        if val == 0:
            zero_partitions.append(pi)
            rho = restrict(pi, range(1, n_ref + 1))
            if not classify(quotient(ref, rho)).is_pseudo_cactus:
                violations.append(pi)
    return EtaScanReport(
        n_partitions=n_total,
        n_supported=n_supported,
        max_eta=max_eta,
        eta_zero_partitions=zero_partitions,
        pseudo_cactus_ok=not violations,
        violations=violations,
    )


def supported_splits(aux: AuxiliaryGraph) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every split partition of the auxiliary graph with centered support.

    Yields (internal, targets, sources): the restricted-growth labels of the
    color-0 vertices in niche order and of the color-1 and color-2 vertices
    in vertex order.  The two reference classes are partitioned outright;
    the internal labels are assigned one vertex at a time while the
    multiplicities of the w-groups (internal block, target block) and the
    x-groups (source block, internal block) are counted.  Each unassigned
    vertex joins one group of each kind, so it closes at most one singleton
    of each; a prefix is cut as soon as either singleton count exceeds the
    number of vertices still unassigned.
    """
    index: dict = {}
    n_class = {1: 0, 2: 0}
    for v, c in aux.reference.vertices:
        index[v] = n_class[c]
        n_class[c] += 1
    ends = [(index[e.dst], index[e.src]) for e in aux.reference.edges for _ in aux.niches[e.id]]
    n0 = len(ends)
    labels = [0] * n0
    w_mult: dict[tuple[int, int], int] = {}
    x_mult: dict[tuple[int, int], int] = {}

    def walk(i: int, n_blocks: int, w_single: int, x_single: int, keys: list) -> Iterator[tuple[int, ...]]:
        if i == n0:
            yield tuple(labels)
            return
        t, s = keys[i]
        left = n0 - 1 - i
        for b in range(n_blocks + 1):
            kw, kx = (b, t), (s, b)
            mw, mx = w_mult.get(kw, 0), x_mult.get(kx, 0)
            ws = w_single + (mw == 0) - (mw == 1)
            xs = x_single + (mx == 0) - (mx == 1)
            if ws > left or xs > left:
                continue
            w_mult[kw], x_mult[kx] = mw + 1, mx + 1
            labels[i] = b
            yield from walk(i + 1, max(n_blocks, b + 1), ws, xs, keys)
            w_mult[kw], x_mult[kx] = mw, mx

    for targets in restricted_growth_strings(n_class[1]):
        for sources in restricted_growth_strings(n_class[2]):
            keys = [(targets[t], sources[s]) for t, s in ends]
            for internal in walk(0, 0, 0, 0, keys):
                yield internal, targets, sources
