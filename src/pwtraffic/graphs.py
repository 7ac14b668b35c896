"""Directed labeled multigraphs: test graphs, quotients, cycles, niches.

Vertices carry a split color in {0, 1, 2} and keep their insertion order;
set partitions over a graph address vertices by that order (1-based).  Edges
carry stable identities so that multisets and niche membership survive
quotients.

Cycle and cut-edge classification ignores edge directions.  ``classify``
and the exact limit walk add edges by one rule (``join_edge``); the cycles
it records are all the simple cycles iff no edge lies on two of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, Sequence

from .hermite import _clip
from .partitions import SetPartition, restricted_growth_strings

VertexId = Hashable
EdgeId = Hashable


@dataclass(frozen=True)
class Edge:
    id: EdgeId
    src: VertexId
    dst: VertexId
    label: object


class TestGraph:
    """Directed multigraph with split-colored vertices and labeled edges."""

    __test__ = False  # domain type, despite the pytest-like name

    def __init__(
        self,
        vertices: Sequence[tuple[VertexId, int]],
        edges: Iterable[Edge],
        reference: bool = False,
    ) -> None:
        self.vertices: tuple[tuple[VertexId, int], ...] = tuple((v, int(c)) for v, c in vertices)
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        self.color: dict[VertexId, int] = dict(self.vertices)
        if any(c not in (0, 1, 2) for c in self.color.values()):
            raise ValueError("vertex colors must lie in {0, 1, 2}")
        es = []
        for e in edges:
            if e.src not in self.color or e.dst not in self.color:
                raise ValueError(f"edge {_clip(e.id)} references a missing vertex")
            es.append(e)
        self.edges: tuple[Edge, ...] = tuple(es)
        if len({e.id for e in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge ids")
        self.is_reference = bool(reference)
        if self.is_reference:
            check_reference_edges(self)

    # -- basic views ------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[VertexId, ...]:
        return tuple(v for v, _ in self.vertices)

    @property
    def coloring(self) -> tuple[int, ...]:
        """Colors in vertex order, for partition splitness checks."""
        return tuple(c for _, c in self.vertices)

    def vertex_position(self) -> dict[VertexId, int]:
        """Vertex -> 1-based position in insertion order."""
        return {v: i + 1 for i, (v, _) in enumerate(self.vertices)}

    def __repr__(self) -> str:
        return f"TestGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


# -- connectivity and quotients -------------------------------------------


def _union_find(nodes: Iterable, links: Iterable[tuple]) -> dict:
    """Node -> representative of its class once every (a, b) link is merged."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {v: find(v) for v in parent}


def check_reference_edges(g: TestGraph) -> None:
    """A ValueError naming the first edge that does not run from colour 2 to colour 1, as reference edges do."""
    for e in g.edges:
        if g.color[e.src] != 2 or g.color[e.dst] != 1:
            raise ValueError(f"reference edges run from color 2 to color 1; edge {_clip(e.id)} does not")


def split_partitions(g: TestGraph):
    """All partitions of the vertex set whose blocks are monochromatic.

    Yields one SetPartition (over the graph's vertex order) per combination
    of restricted-growth strings of the color classes, colors in increasing
    order and the first color outermost.
    """
    by_color: dict[int, list[int]] = {}
    for i, (_, c) in enumerate(g.vertices):
        by_color.setdefault(c, []).append(i + 1)
    classes = [by_color[c] for c in sorted(by_color)]
    for labels in product(*(restricted_growth_strings(len(p)) for p in classes)):
        yield SetPartition.from_labels(len(g.vertices), zip(classes, labels))


class NonSplitPartitionError(ValueError):
    def __init__(self, block: tuple) -> None:
        super().__init__(f"partition is not split: block {block} mixes colors")
        self.block = block


def _check_split(g: TestGraph, pi: SetPartition) -> None:
    """Raise NonSplitPartitionError, naming the vertex ids, on a block that mixes colors."""
    coloring = g.coloring
    for b in pi.blocks:
        if len({coloring[x - 1] for x in b}) > 1:
            raise NonSplitPartitionError(tuple(g.vertex_ids[x - 1] for x in b))


def quotient(g: TestGraph, pi: SetPartition) -> TestGraph:
    """Identify vertices inside each block of a split partition.

    Quotient vertex ids are tuples of the merged original ids (in insertion
    order), so the block membership of every original vertex stays readable.
    Edge ids, labels and multiplicities are preserved.
    """
    if pi.ground_size != len(g.vertices):
        raise ValueError("partition ground size must match the vertex count")
    _check_split(g, pi)
    order = g.vertex_ids
    new_vertices: list[tuple[tuple, int]] = []
    member_to_block: dict[VertexId, tuple] = {}
    for b in pi.blocks:
        vid = tuple(order[x - 1] for x in b)
        new_vertices.append((vid, g.color[order[b[0] - 1]]))
        for x in b:
            member_to_block[order[x - 1]] = vid
    new_edges = [Edge(e.id, member_to_block[e.src], member_to_block[e.dst], e.label) for e in g.edges]
    return TestGraph(new_vertices, new_edges, reference=False)


# -- cycles and the cactus family -------------------------------------------


@dataclass(frozen=True)
class StrongComponentReport:
    """Cut edges and cycles of a connected multigraph.

    ``two_cycles`` holds pairs of parallel edge ids in edge order;
    ``long_cycles`` holds edge-id sequences of the remaining cycles in walking
    order (self-loops included as length-1 sequences).  ``is_pseudo_cactus``
    holds when no edge lies on two simple cycles, and only then are the
    cycles all the simple cycles of the graph (see :func:`classify`).
    """

    cut_edges: tuple[EdgeId, ...]
    two_cycles: tuple[tuple[EdgeId, EdgeId], ...]
    long_cycles: tuple[tuple[EdgeId, ...], ...]
    is_pseudo_cactus: bool


def join_edge(adj, cycles: list, k: int, a, b) -> bool:
    """Add edge ``k`` between ``a`` and ``b``; True if the cycle it closes shares an edge with an earlier one.

    ``adj`` maps each vertex to its (edge, neighbour) pairs and ``cycles``
    lists the cycles closed so far as (vertices, edges) in walking order,
    edge i joining vertex i to the next.  The new edge closes the cycle of
    the breadth-first path from ``a`` to ``b``, if there is one.  A path of
    cut edges is the only path between its ends; a path through an edge on
    a cycle puts that edge on two.
    """
    via = {a: None}
    for x in (queue := [a]):
        for j, y in adj[x]:
            if y not in via:
                via[y] = x, j
                queue.append(y)
    shared = False
    if b in via:
        verts, edges, y = [a], [k], b
        while y != a:
            verts.append(y)
            y, j = via[y]
            edges.append(j)
        shared = not {j for _, es in cycles for j in es}.isdisjoint(edges)
        cycles.append((tuple(verts), tuple(edges)))
    adj[a].append((k, b))
    adj[b].append((k, a))
    return shared


def classify(g: TestGraph) -> StrongComponentReport:
    """Cut edges, cycles and the pseudo-cactus test of a connected graph, one :func:`join_edge` per edge.

    Each cycle (every self-loop and extra parallel edge closes one) holds
    its closing edge, which no earlier cycle holds, so the cycles are a
    basis and an edge on none is a cut edge.  The graph is a pseudo-cactus
    iff no two share an edge; they are then all of its simple cycles, since
    a sum of two or more edge-disjoint cycles is not simple.  For any other
    graph the cycle lists hold the basis only.
    """
    adj: dict[VertexId, list] = {v: [] for v in g.vertex_ids}
    cycles: list[tuple[tuple, tuple[int, ...]]] = []
    shared = [join_edge(adj, cycles, k, e.src, e.dst) for k, e in enumerate(g.edges)]
    if g.vertices and len(cycles) != len(g.edges) - len(g.vertices) + 1:  # one basis cycle per edge off a spanning tree
        raise ValueError("classify expects a connected graph; classify components separately")
    ids = [e.id for e in g.edges]
    on_cycle = {j for _, es in cycles for j in es}
    return StrongComponentReport(
        cut_edges=tuple(i for k, i in enumerate(ids) if k not in on_cycle),
        two_cycles=tuple((ids[min(es)], ids[max(es)]) for _, es in cycles if len(es) == 2),
        long_cycles=tuple(tuple(ids[j] for j in es) for _, es in cycles if len(es) != 2),
        is_pseudo_cactus=not any(shared),
    )


# -- reference graph presets -------------------------------------------------


def single_edge(label) -> TestGraph:
    """One edge from a color-2 source to a color-1 target."""
    return TestGraph([("out", 1), ("in", 2)], [Edge("e", "in", "out", label)], reference=True)


def moment_cycle(k: int, label) -> TestGraph:
    """The 2k-edge alternating cycle whose trace is Tr[(Y Y^t)^k].

    k = 1 is the doubled edge; larger k alternates k color-1 and k color-2
    vertices with two parallel-direction edges per color-2 vertex.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vertices = [(("u", i), 1) for i in range(k)] + [(("v", i), 2) for i in range(k)]
    edges = []
    for i in range(k):
        edges.append(Edge(("e", i, 0), ("v", i), ("u", i), label))
        edges.append(Edge(("e", i, 1), ("v", i), ("u", (i + 1) % k), label))
    return TestGraph(vertices, edges, reference=True)


# -- auxiliary (niche) graphs: ``aux.reference`` and its expansion ``aux.graph`` --

W_LABEL = "w"
X_LABEL = "x"


def edge_groups(g: TestGraph, pi: SetPartition) -> dict[tuple, list[EdgeId]]:
    """Group edges identified by the quotient: same label and endpoint blocks."""
    idx = pi.block_index()
    pos = g.vertex_position()
    groups: dict[tuple, list[EdgeId]] = {}
    for e in g.edges:
        key = (e.label, idx[pos[e.src]], idx[pos[e.dst]])
        groups.setdefault(key, []).append(e.id)
    return groups


def has_centered_support(aux, pi: SetPartition) -> bool:
    """Centered-entry support filter on an auxiliary graph: no w- or x-group of multiplicity 1.

    A group is a maximal set of equally-labeled edges whose sources share a
    block and whose targets share a block; entries with mean zero kill any
    quotient containing a singleton group.
    """
    for eids in edge_groups(aux.graph, pi).values():
        if len(eids) == 1:
            return False
    return True


@dataclass(frozen=True)
class EtaBreakdown:
    """The size exponent of a quotient and its two-graph decomposition."""

    eta: Fraction
    eta1: Fraction
    eta2: Fraction
    w_components: int


def _w_components(g: TestGraph, block_of: dict) -> dict[int, int]:
    """Block of a color-0/1 vertex -> its component in the quotiented w-subgraph."""
    blocks = {block_of[v] for v, c in g.vertices if c != 2}
    links = [(block_of[e.src], block_of[e.dst]) for e in g.edges if e.label == W_LABEL]
    return _union_find(blocks, links)


def eta(aux, pi: SetPartition) -> EtaBreakdown:
    """Exponent of N carried by a split quotient of an auxiliary graph.

    eta = |V^pi| - 1 - |E|/2 - sum_e n(e)/2 over the reference edge set, and
    eta = eta1 + eta2 with eta1 the forest defect of the quotient of the
    w-subgraph and eta2 the same quantity for the coarser reference quotient.
    """
    g = aux.graph
    if pi.ground_size != len(g.vertices):
        raise ValueError("partition must cover the auxiliary vertex set")
    _check_split(g, pi)
    ref = aux.reference
    n_edges = len(ref.edges)
    sum_n = sum(e.label for e in ref.edges)
    v_pi = pi.num_blocks
    total_eta = Fraction(v_pi - 1) - Fraction(n_edges, 2) - Fraction(sum_n, 2)

    idx = pi.block_index()
    pos = g.vertex_position()
    block_of = {v: idx[pos[v]] for v in g.vertex_ids}
    w_root = _w_components(g, block_of)
    c_w = len(set(w_root.values()))
    eta1 = Fraction(len(w_root) - c_w) - Fraction(sum_n, 2)
    v2_blocks = len({block_of[v] for v in g.vertex_ids if g.color[v] == 2})
    eta2 = Fraction(c_w + v2_blocks - 1) - Fraction(n_edges, 2)
    assert eta1 + eta2 == total_eta
    return EtaBreakdown(eta=total_eta, eta1=eta1, eta2=eta2, w_components=c_w)

