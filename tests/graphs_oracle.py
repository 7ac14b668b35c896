"""Graph definitions that only the tests use.

Graph monomials (a test graph with input and output vertices), the cycles
of a ``classify`` report in one list, edge lookup by id, connectivity
(``is_connected``, on ``graphs._union_find``), the auxiliary (niche) graph
of a reference graph (``build_auxiliary``) and its internal vertices, the
coarsened reference restriction ``rho_tilde`` of a split quotient, and the
exhaustive simple-cycle enumeration (``skeleton``, ``simple_cycles``)
behind ``classify_oracle``, the oracle of the edge-join ``graphs.classify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from pwtraffic.graphs import (
    Edge,
    EdgeId,
    StrongComponentReport,
    TestGraph,
    VertexId,
    W_LABEL,
    X_LABEL,
    _check_split,
    _union_find,
    _w_components,
    check_reference_edges,
)
from pwtraffic.partitions import SetPartition


@dataclass(frozen=True)
class GraphMonomial:
    """Test graph with distinguished input and output vertices."""

    graph: TestGraph
    input: VertexId
    output: VertexId

    def __post_init__(self) -> None:
        if self.input not in self.graph.color or self.output not in self.graph.color:
            raise ValueError("input/output must be vertices of the graph")


def all_cycles(report: StrongComponentReport) -> tuple[tuple[EdgeId, ...], ...]:
    """The 2-cycles, then the longer cycles, of a classify report."""
    return tuple(report.two_cycles) + tuple(report.long_cycles)


def edge_by_id(g: TestGraph, eid: EdgeId) -> Edge:
    for e in g.edges:
        if e.id == eid:
            return e
    raise KeyError(eid)


def is_connected(g: TestGraph) -> bool:
    return len(set(_union_find(g.vertex_ids, ((e.src, e.dst) for e in g.edges)).values())) <= 1


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Two-variable expansion of a reference graph.

    Each reference edge of label n is replaced by n internal vertices (its
    niche, ``niches[edge id]``); every internal vertex sources one w-edge
    into the reference target and sinks one x-edge from the reference
    source.
    """

    reference: TestGraph
    graph: TestGraph
    niches: dict[EdgeId, tuple[VertexId, ...]] = field(compare=False)


def build_auxiliary(ref: TestGraph) -> AuxiliaryGraph:
    """Expand every reference edge into its niche (label = niche size >= 1).

    Takes any graph whose edges run from colour 2 to colour 1, with or
    without the reference tag, as ``limits.eta_support_scan`` does.
    """
    check_reference_edges(ref)
    vertices: list[tuple[VertexId, int]] = list(ref.vertices)
    edges: list[Edge] = []
    niches: dict[EdgeId, tuple[VertexId, ...]] = {}
    for e in ref.edges:
        n = e.label
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"reference edge {e.id!r} needs an integer label >= 1, got {n!r}")
        niches[e.id] = tuple(("niche", e.id, k) for k in range(n))
        for k, v in enumerate(niches[e.id]):
            vertices.append((v, 0))
            edges.append(Edge((W_LABEL, e.id, k), v, e.dst, W_LABEL))
            edges.append(Edge((X_LABEL, e.id, k), e.src, v, X_LABEL))
    return AuxiliaryGraph(reference=ref, graph=TestGraph(vertices, edges), niches=niches)


def internal_vertices(aux: AuxiliaryGraph) -> tuple[VertexId, ...]:
    return tuple(v for v in aux.graph.vertex_ids if aux.graph.color[v] == 0)


def rho_tilde(aux: AuxiliaryGraph, pi: SetPartition) -> SetPartition:
    """Coarsening of the reference restriction of a split quotient.

    Color-1 vertices merge iff they share a connected component of the
    quotiented w-subgraph; color-2 vertices merge iff the partition merges
    them.  The plain restriction of pi refines this.
    """
    g = aux.graph
    _check_split(g, pi)
    idx = pi.block_index()
    pos = g.vertex_position()
    block_of = {v: idx[pos[v]] for v in g.vertex_ids}
    w_root = _w_components(g, block_of)

    ref = aux.reference
    ref_pos = ref.vertex_position()
    groups: dict[tuple, list[int]] = {}
    for v in ref.vertex_ids:
        if ref.color[v] == 1:
            key = ("w-comp", w_root[block_of[v]])
        elif ref.color[v] == 2:
            key = ("pi", block_of[v])
        else:
            raise ValueError("reference graphs carry only colors 1 and 2")
        groups.setdefault(key, []).append(ref_pos[v])
    return SetPartition.from_blocks(len(ref.vertices), groups.values())


def skeleton(g: TestGraph) -> dict[frozenset, list[EdgeId]]:
    """One key per endpoint pair (direction ignored) -> merged edge ids."""
    out: dict[frozenset, list[EdgeId]] = {}
    for e in g.edges:
        out.setdefault(frozenset((e.src, e.dst)), []).append(e.id)
    return out


def _vertex_cycles(adj: dict, order: list) -> list[list]:
    """Simple cycles (length >= 3) as vertex lists, one per rotation class."""
    pos = {v: i for i, v in enumerate(order)}
    cycles = []
    for start in order:
        path = [start]
        on_path = {start}

        def extend() -> None:
            here = path[-1]
            for nxt in adj.get(here, ()):  # neighbors on the skeleton
                if nxt == start and len(path) >= 3:
                    # fix direction: the second vertex smaller than the last
                    if pos[path[1]] < pos[path[-1]]:
                        cycles.append(list(path))
                elif nxt not in on_path and pos[nxt] > pos[start]:
                    path.append(nxt)
                    on_path.add(nxt)
                    extend()
                    path.pop()
                    on_path.remove(nxt)

        extend()
    return cycles


def simple_cycles(g: TestGraph) -> list[tuple[EdgeId, ...]]:
    """All simple cycles as edge-id tuples, directions ignored.

    Parallel edges between the same endpoints produce one 2-cycle per
    unordered pair of edges, and one cycle per choice of parallel edge along
    longer vertex cycles.  Self-loops are length-1 cycles.
    """
    skel = skeleton(g)
    cycles: list[tuple[EdgeId, ...]] = []
    for pair, eids in skel.items():
        if len(pair) == 1:
            cycles.extend((eid,) for eid in eids)
        elif len(eids) >= 2:
            for i in range(len(eids)):
                for j in range(i + 1, len(eids)):
                    cycles.append((eids[i], eids[j]))
    adj: dict[VertexId, list] = {}
    for pair in skel:
        if len(pair) == 2:
            a, b = tuple(pair)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    order = list(g.vertex_ids)
    for vcycle in _vertex_cycles(adj, order):
        k = len(vcycle)
        choices = [skel[frozenset((vcycle[i], vcycle[(i + 1) % k]))] for i in range(k)]
        for combo in product(*choices):
            cycles.append(tuple(combo))
    return cycles


def classify_oracle(g: TestGraph) -> StrongComponentReport:
    """Cut edges, simple cycles, and the pseudo-cactus test of a connected graph."""
    if not is_connected(g):
        raise ValueError("classify expects a connected graph; classify components separately")
    cycles = simple_cycles(g)
    in_cycles: dict[EdgeId, int] = {e.id: 0 for e in g.edges}
    for cyc in cycles:
        for eid in cyc:
            in_cycles[eid] += 1
    cut_edges = tuple(e.id for e in g.edges if in_cycles[e.id] == 0)
    two_cycles = tuple(tuple(c) for c in cycles if len(c) == 2)
    long_cycles = tuple(tuple(c) for c in cycles if len(c) != 2)
    return StrongComponentReport(
        cut_edges=cut_edges,
        two_cycles=two_cycles,
        long_cycles=long_cycles,
        is_pseudo_cactus=all(n <= 1 for n in in_cycles.values()),
    )
