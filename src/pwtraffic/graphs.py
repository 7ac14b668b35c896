"""Directed labeled multigraphs: test graphs, quotients, cycles, niches.

Vertices carry a split color in {0, 1, 2} and keep their insertion order;
set partitions over a graph address vertices by that order (1-based).  Edges
carry stable identities so that multisets and niche membership survive
quotients.

Cycle and cut-edge classification ignores edge directions.  Graphs in scope
are desk-sized (a dozen vertices), so simple cycles are enumerated
exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, Mapping, Sequence

from .partitions import SetPartition, enumerate_set_partitions

VertexId = Hashable
EdgeId = Hashable


@dataclass(frozen=True)
class Edge:
    id: EdgeId
    src: VertexId
    dst: VertexId
    label: object

    @property
    def endpoints(self) -> frozenset:
        return frozenset((self.src, self.dst))


class TestGraph:
    """Directed multigraph with split-colored vertices and labeled edges."""

    __test__ = False  # domain type, despite the pytest-like name

    def __init__(
        self,
        vertices: Sequence[tuple[VertexId, int]] | Mapping[VertexId, int],
        edges: Iterable[Edge | tuple],
        reference: bool = False,
    ) -> None:
        if isinstance(vertices, Mapping):
            vertices = list(vertices.items())
        self.vertices: tuple[tuple[VertexId, int], ...] = tuple((v, int(c)) for v, c in vertices)
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        self.color: dict[VertexId, int] = dict(self.vertices)
        if any(c not in (0, 1, 2) for c in self.color.values()):
            raise ValueError("vertex colors must lie in {0, 1, 2}")
        es = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            if e.src not in self.color or e.dst not in self.color:
                raise ValueError(f"edge {e.id!r} references a missing vertex")
            es.append(e)
        self.edges: tuple[Edge, ...] = tuple(es)
        if len({e.id for e in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge ids")
        self.is_reference = bool(reference)
        if self.is_reference:
            for e in self.edges:
                if self.color[e.src] != 2 or self.color[e.dst] != 1:
                    raise ValueError(
                        f"reference graphs need edges from color 2 to color 1; edge {e.id!r} violates this"
                    )

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

    def edge_by_id(self, eid: EdgeId) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def __repr__(self) -> str:
        return f"TestGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class GraphMonomial:
    """Test graph with distinguished input and output vertices."""

    graph: TestGraph
    input: VertexId
    output: VertexId

    def __post_init__(self) -> None:
        if self.input not in self.graph.color or self.output not in self.graph.color:
            raise ValueError("input/output must be vertices of the graph")


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


def connected_components(g: TestGraph) -> list[set]:
    comps: dict[VertexId, set] = {}
    for v, root in _union_find(g.vertex_ids, ((e.src, e.dst) for e in g.edges)).items():
        comps.setdefault(root, set()).add(v)
    return list(comps.values())


def is_connected(g: TestGraph) -> bool:
    return len(connected_components(g)) <= 1


def split_partitions(g: TestGraph):
    """All partitions of the vertex set whose blocks are monochromatic.

    Yields one SetPartition (over the graph's vertex order) per combination
    of independent partitions of the color classes.
    """
    n = len(g.vertices)
    by_color: dict[int, list[int]] = {}
    for i, (_, c) in enumerate(g.vertices):
        by_color.setdefault(c, []).append(i + 1)
    colors = sorted(by_color)
    class_partitions = [list(enumerate_set_partitions(len(by_color[c]))) for c in colors]
    for combo in product(*class_partitions):
        blocks = []
        for c, pi in zip(colors, combo):
            positions = by_color[c]
            for b in pi.blocks:
                blocks.append(tuple(positions[x - 1] for x in b))
        yield SetPartition.from_blocks(n, blocks)


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


def skeleton(g: TestGraph) -> dict[frozenset, list[EdgeId]]:
    """One key per endpoint pair (direction ignored) -> merged edge ids."""
    out: dict[frozenset, list[EdgeId]] = {}
    for e in g.edges:
        out.setdefault(e.endpoints, []).append(e.id)
    return out


# -- simple cycles and the cactus family -----------------------------------


@dataclass(frozen=True)
class StrongComponentReport:
    """Cut edges and simple cycles of a connected multigraph.

    ``two_cycles`` holds unordered pairs of parallel edge ids; ``long_cycles``
    holds edge-id sequences of the remaining cycles (self-loops included as
    length-1 sequences).  ``is_pseudo_cactus`` holds when no edge lies on two
    simple cycles.
    """

    cut_edges: tuple[EdgeId, ...]
    two_cycles: tuple[tuple[EdgeId, EdgeId], ...]
    long_cycles: tuple[tuple[EdgeId, ...], ...]
    is_pseudo_cactus: bool

    @property
    def all_cycles(self) -> tuple[tuple[EdgeId, ...], ...]:
        return tuple(self.two_cycles) + tuple(self.long_cycles)


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


def classify(g: TestGraph) -> StrongComponentReport:
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


# -- the auxiliary (niche) construction ------------------------------------

W_LABEL = "w"
X_LABEL = "x"


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

    @property
    def internal_vertices(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.graph.vertex_ids if self.graph.color[v] == 0)


def build_auxiliary(ref: TestGraph) -> AuxiliaryGraph:
    """Expand every reference edge into its niche (label = niche size >= 1)."""
    if not ref.is_reference:
        raise ValueError("build_auxiliary expects a reference-tagged graph")
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


def edge_groups(g: TestGraph, pi: SetPartition) -> dict[tuple, list[EdgeId]]:
    """Group edges identified by the quotient: same label and endpoint blocks."""
    idx = pi.block_index()
    pos = g.vertex_position()
    groups: dict[tuple, list[EdgeId]] = {}
    for e in g.edges:
        key = (e.label, idx[pos[e.src]], idx[pos[e.dst]])
        groups.setdefault(key, []).append(e.id)
    return groups


def has_centered_support(aux: AuxiliaryGraph, pi: SetPartition) -> bool:
    """Centered-entry support filter: no w- or x-group of multiplicity 1.

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


def eta(aux: AuxiliaryGraph, pi: SetPartition) -> EtaBreakdown:
    """Exponent of N carried by a split quotient of the auxiliary graph.

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
