"""Graph definitions that only the tests use.

Graph monomials (a test graph with input and output vertices), edge lookup
by id, the internal vertices of an auxiliary graph and the coarsened
reference restriction ``rho_tilde`` of a split quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from pwtraffic.graphs import (
    AuxiliaryGraph,
    Edge,
    EdgeId,
    TestGraph,
    VertexId,
    _check_split,
    _w_components,
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


def edge_by_id(g: TestGraph, eid: EdgeId) -> Edge:
    for e in g.edges:
        if e.id == eid:
            return e
    raise KeyError(eid)


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
