"""Reference exponent scans: enumerate every split partition, then filter.

The slow form of ``pwtraffic.limits.eta_support_scan``, kept as a test
oracle.  Every split partition of the auxiliary graph is built as a
``SetPartition``; the support filter regroups its edges (``edge_groups``)
and the exponent comes from ``graphs.eta``, which also runs the w-subgraph
union-find.  The validation is the scan's own; the guard on the Bell-number
count of split partitions (``MAX_SCAN_PARTITIONS``) is the oracle's.

``supported_splits`` is the pruned walk as a chain of generators, one per
internal vertex, yielding the labels of every supported partition.
``labelled_walk`` and ``descend`` are the memoised walk that
``limits._scan_splits`` replaced: its states carry labelled multiplicities
(one flat list per reference class, capped at 2) and each keeps the
children that reach an exponent-zero leaf.  Both are oracles of the
canonical walk.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import Iterator

from pwtraffic.graphs import (
    TestGraph,
    classify,
    eta,
    has_centered_support,
    quotient,
    split_partitions,
)
from pwtraffic.limits import EtaScanReport
from pwtraffic.partitions import SetPartition, bell_number, restricted_growth_strings
from graphs_oracle import AuxiliaryGraph, build_auxiliary
from partitions_oracle import restrict

#: The oracle's guard: the Bell-number count of split partitions that it enumerates.
MAX_SCAN_PARTITIONS = 5_000_000


def bell_count(ref: TestGraph) -> int:
    """The Bell-number count of split partitions of ``ref``'s auxiliary graph (positive integer labels)."""
    n_class = {1: 0, 2: 0}
    for _, c in ref.vertices:
        n_class[c] += 1
    return bell_number(sum(e.label for e in ref.edges)) * bell_number(n_class[1]) * bell_number(n_class[2])


def within_bell_guard(ref: TestGraph) -> bool:
    """Whether the oracle enumerates ``ref``'s split partitions: ``bell_count`` is at most ``MAX_SCAN_PARTITIONS``."""
    return bell_count(ref) <= MAX_SCAN_PARTITIONS


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


def labelled_walk(reference: tuple, niches: list[int], offset: int) -> tuple[int, int, dict]:
    """Walk the split partitions of the auxiliary graph with centered support, from ``limits._read_reference``'s view.

    Edge e has a niche of ``niches[e]`` internal vertices, each with a w-edge into e's target and an x-edge from
    e's source.  Under each pair of reference partitions one recursion assigns the internal labels in niche order,
    with the w- and x-group multiplicities in flat lists (reference block * n0 + internal block), capped at 2: the
    support filter only tells 0, 1 and more apart.  A prefix is cut once either singleton count exceeds the
    vertices still unassigned.  The position, the internal block count and the two lists fix everything below a
    state, so each state is walked once per pair: its count of supported leaves, a bitmask of their internal block
    counts, its count of leaves of ``offset`` blocks in all (exponent zero) and its (label, child) pairs that reach
    one.  Returns the count, the largest block count (-1 if none) and the roots with an exponent-zero leaf, keyed by
    (targets, sources).
    """
    target_positions, source_positions, ranks = reference
    ends = [ts for ts, n in zip(ranks, niches) for _ in range(n)]  # (target, source) rank per niche vertex
    n0 = len(ends)
    w_mult, x_mult = [0] * (len(target_positions) * n0), [0] * (len(source_positions) * n0)
    n_supported, max_blocks, roots = 0, -1, {}

    def walk(i: int, n_blocks: int, w_single: int, x_single: int) -> tuple[int, int, int, Sequence]:
        if i == n0:
            return 1, 1 << n_blocks, int(n_blocks == zero_blocks), ()
        key = (i, n_blocks, *w_mult, *x_mult)
        seen = memo.get(key)
        if seen is not None:
            return seen
        count, mask, n_zero, reaching = 0, 0, 0, []
        bw, bx, left = w_base[i], x_base[i], n0 - 1 - i
        for b in range(n_blocks + 1):
            kw, kx = bw + b, bx + b
            mw, mx = w_mult[kw], x_mult[kx]
            ws = w_single + (mw == 0) - (mw == 1)
            xs = x_single + (mx == 0) - (mx == 1)
            if ws <= left and xs <= left:
                w_mult[kw], x_mult[kx] = mw + (mw < 2), mx + (mx < 2)
                below = walk(i + 1, n_blocks + (b == n_blocks), ws, xs)
                w_mult[kw], x_mult[kx] = mw, mx
                count, mask, n_zero = count + below[0], mask | below[1], n_zero + below[2]
                if below[2]:
                    reaching.append((b, below))
        memo[key] = seen = count, mask, n_zero, reaching
        return seen

    for targets in restricted_growth_strings(len(target_positions)):
        for sources in restricted_growth_strings(len(source_positions)):
            w_base = [targets[t] * n0 for t, _ in ends]
            x_base = [sources[s] * n0 for _, s in ends]
            outer = max(targets, default=-1) + max(sources, default=-1) + 2  # the target and source blocks
            zero_blocks = offset - outer  # the internal block count of an exponent-zero leaf
            memo: dict[tuple, tuple[int, int, int, Sequence]] = {}
            count, mask, n_zero, _ = root = walk(0, 0, 0, 0)
            n_supported += count
            max_blocks = max(max_blocks, mask.bit_length() - 1 + outer if count else -1)
            if n_zero:
                roots[targets, sources] = root
    return n_supported, max_blocks, roots


def descend(roots: dict) -> list[tuple[tuple[int, ...], ...]]:
    """The (internal, targets, sources) labels of every exponent-zero leaf below ``roots``, walk roots keyed by (targets, sources)."""
    out, stack = [], [((), root, pair) for pair, root in roots.items()]
    while stack:
        labels, state, pair = stack.pop()
        if not state[3]:
            out.append((labels, *pair))
        stack.extend((labels + (b,), child, pair) for b, child in state[3])
    return out
