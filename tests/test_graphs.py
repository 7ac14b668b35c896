"""Graph-core tests: quotients, cycles, cactus family, niches, exponents."""

import pytest

from pwtraffic.graphs import (
    Edge,
    NonSplitPartitionError,
    TestGraph,
    build_auxiliary,
    classify,
    connected_components,
    eta,
    has_centered_support,
    moment_cycle,
    quotient,
    rho_tilde,
    single_edge,
    skeleton,
    split_partitions,
)
from pwtraffic.partitions import SetPartition, enumerate_set_partitions, restrict


def graph(colors, edges):
    """colors: dict vertex -> color; edges: (id, src, dst, label) tuples."""
    return TestGraph(list(colors.items()), [Edge(*e) for e in edges])


def test_quotient_discrete_is_identity():
    g = graph({1: 0, 2: 0, 3: 1}, [("a", 1, 2, "m"), ("b", 2, 3, "m")])
    q = quotient(g, SetPartition.singletons(3))
    assert [(v, c) for v, c in q.vertices] == [((1,), 0), ((2,), 0), ((3,), 1)]
    assert [(e.id, e.src, e.dst) for e in q.edges] == [("a", (1,), (2,)), ("b", (2,), (3,))]


def test_quotient_path_to_two_cycle():
    g = graph({"a": 0, "b": 0, "c": 0}, [("e1", "a", "b", "m"), ("e2", "b", "c", "m")])
    q = quotient(g, SetPartition.from_blocks(3, [[1, 3], [2]]))
    assert len(q.vertices) == 2
    rep = classify(q)
    # a cactus: every edge on exactly one cycle
    assert rep.two_cycles and not rep.cut_edges
    assert sorted(e for c in rep.all_cycles for e in c) == ["e1", "e2"]


def test_quotient_preserves_parallel_edges():
    g = graph({"u": 0, "v": 0}, [(k, "u", "v", "m") for k in range(4)])
    q = quotient(g, SetPartition.singletons(2))
    assert len(q.edges) == 4
    (pair,) = skeleton(q).keys()
    assert len(skeleton(q)[pair]) == 4


def test_quotient_rejects_non_split():
    g = graph({"u": 1, "v": 2}, [("e", "v", "u", "m")])
    with pytest.raises(NonSplitPartitionError) as err:
        quotient(g, SetPartition.from_blocks(2, [[1, 2]]))
    assert err.value.block == ("u", "v")


def test_quotient_composition():
    # quotient by nested partitions equals the single-step quotient
    g = graph({i: 0 for i in range(1, 6)}, [("a", 1, 2, "m"), ("b", 2, 3, "m"), ("c", 4, 5, "m")])
    pi = SetPartition.from_blocks(5, [[1, 3], [2], [4], [5]])
    q1 = quotient(g, pi)
    sigma = SetPartition.from_blocks(4, [[1, 2], [3, 4]])
    q2 = quotient(q1, sigma)
    combined = SetPartition.from_blocks(5, [[1, 2, 3], [4, 5]])
    q_direct = quotient(g, combined)
    assert sorted(tuple(sorted(map(str, b))) for b, _ in [(v, c) for v, c in q_direct.vertices]) is not None
    assert len(q2.vertices) == len(q_direct.vertices) == 2
    assert sorted((str(e.id), e.label) for e in q2.edges) == sorted((str(e.id), e.label) for e in q_direct.edges)
    # same endpoint structure after flattening nested block ids
    def flat(v):
        out = []
        stack = [v]
        while stack:
            x = stack.pop()
            if isinstance(x, tuple):
                stack.extend(x)
            else:
                out.append(x)
        return tuple(sorted(out))

    m2 = {e.id: (flat(e.src), flat(e.dst)) for e in q2.edges}
    md = {e.id: (flat(e.src), flat(e.dst)) for e in q_direct.edges}
    assert m2 == md


def test_skeleton_examples():
    g = graph({"u": 0, "v": 0}, [("a", "u", "v", "m"), ("b", "u", "v", "m")])
    skel = skeleton(g)
    assert len(skel) == 1 and len(next(iter(skel.values()))) == 2
    tri = graph({1: 0, 2: 0, 3: 0}, [("a", 1, 2, "m"), ("b", 2, 3, "m"), ("c", 3, 1, "m")])
    assert len(skeleton(tri)) == 3
    anti = graph({"u": 0, "v": 0}, [("a", "u", "v", "m"), ("b", "v", "u", "m")])
    skel2 = skeleton(anti)
    assert len(skel2) == 1 and len(next(iter(skel2.values()))) == 2


def test_classify_single_edge():
    rep = classify(graph({1: 0, 2: 0}, [("e", 1, 2, "m")]))
    assert rep.cut_edges == ("e",)
    assert rep.is_pseudo_cactus and not rep.all_cycles  # a tree


def test_classify_pseudo_cactus_figure_shape():
    # two cut edges, two 2-cycles, one length-4 and one length-6 cycle
    edges = []
    # 4-cycle a-b-c-d
    for i, (s, t) in enumerate([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]):
        edges.append((f"c4_{i}", s, t, "m"))
    edges.append(("cut1", "a", "e", "m"))
    edges.append(("tc1a", "e", "f", "m"))
    edges.append(("tc1b", "f", "e", "m"))
    edges.append(("cut2", "c", "g", "m"))
    for i, (s, t) in enumerate([("g", "h"), ("h", "i"), ("i", "j"), ("j", "k"), ("k", "l"), ("l", "g")]):
        edges.append((f"c6_{i}", s, t, "m"))
    edges.append(("tc2a", "i", "i2", "m"))
    edges.append(("tc2b", "i2", "i", "m"))
    vertices = {v: 0 for v in "abcdefghijkl"} | {"i2": 0}
    rep = classify(graph(vertices, edges))
    # neither a tree nor a cactus: cycles and cut edges both present
    assert rep.is_pseudo_cactus and rep.all_cycles and rep.cut_edges
    assert sorted(rep.cut_edges) == ["cut1", "cut2"]
    assert len(rep.two_cycles) == 2
    assert sorted(len(c) for c in rep.long_cycles) == [4, 6]


def test_classify_doubled_triangle_not_pseudo_cactus():
    edges = [("a", 1, 2, "m"), ("a2", 1, 2, "m"), ("b", 2, 3, "m"), ("c", 3, 1, "m")]
    rep = classify(graph({1: 0, 2: 0, 3: 0}, edges))
    # the doubled edge lies in one 2-cycle and two 3-cycles
    assert not rep.is_pseudo_cactus
    assert len(rep.two_cycles) == 1
    assert len(rep.long_cycles) == 2


def test_classify_pseudo_cactus_edge_cover():
    edges = [("d1", 1, 2, "m"), ("d2", 1, 2, "m"), ("cut", 2, 3, "m")]
    rep = classify(graph({1: 0, 2: 0, 3: 0}, edges))
    assert rep.is_pseudo_cactus
    covered = list(rep.cut_edges) + [e for c in rep.all_cycles for e in c]
    assert sorted(covered) == ["cut", "d1", "d2"]
    assert len(rep.cut_edges) + sum(len(c) for c in rep.all_cycles) == 3


def test_build_auxiliary_counts():
    aux = build_auxiliary(single_edge(3))
    g = aux.graph
    assert len(aux.reference.vertex_ids) == 2
    assert len(aux.internal_vertices) == 3
    assert sum(1 for e in g.edges if e.label == "w") == 3
    assert sum(1 for e in g.edges if e.label == "x") == 3
    # companions: the w-edge out of and the x-edge into each internal vertex
    w_out = {e.src: e for e in g.edges if e.label == "w"}
    x_in = {e.dst: e for e in g.edges if e.label == "x"}
    assert set(w_out) == set(x_in) == set(aux.internal_vertices) == set(aux.niches["e"])
    for v in aux.internal_vertices:
        e1, e2 = w_out[v], x_in[v]
        assert {e1.src, e1.dst} & {e2.src, e2.dst} == {v} and g.color[v] == 0

    aux1 = build_auxiliary(single_edge(1))
    assert len(aux1.graph.vertices) == 3 and len(aux1.graph.edges) == 2

    double = moment_cycle(1, 1)
    aux_d = build_auxiliary(double)
    assert len(aux_d.graph.vertices) == 4 and len(aux_d.graph.edges) == 4


def test_build_auxiliary_rejects_bad_labels():
    bad = TestGraph([("o", 1), ("i", 2)], [Edge("e", "i", "o", 0)], reference=True)
    with pytest.raises(ValueError):
        build_auxiliary(bad)


def test_eta_examples():
    # double edge labeled (1,1), internal vertices paired -> eta 0
    aux = build_auxiliary(moment_cycle(1, 1))
    paired = SetPartition.from_blocks(4, [[1], [2], [3, 4]])
    assert eta(aux, paired).eta == 0
    # single edge labeled 1, discrete -> eta 1
    aux1 = build_auxiliary(single_edge(1))
    assert eta(aux1, SetPartition.singletons(3)).eta == 1
    # single edge labeled 3, all internal merged -> eta 0
    aux3 = build_auxiliary(single_edge(3))
    merged = SetPartition.from_blocks(5, [[1], [2], [3, 4, 5]])
    assert eta(aux3, merged).eta == 0


def test_eta_decomposition_consistency():
    aux = build_auxiliary(moment_cycle(1, 3))
    for pi in split_partitions(aux.graph):
        br = eta(aux, pi)
        assert br.eta == br.eta1 + br.eta2


def test_eta_rejects_non_split():
    aux = build_auxiliary(single_edge(1))
    mixed = SetPartition.from_blocks(3, [[1, 2], [3]])
    with pytest.raises(NonSplitPartitionError):
        eta(aux, mixed)


def test_rho_tilde_merges_via_w_components():
    # two edges sharing their source, labels 1: pairing the internal vertices
    # connects both targets through the w-quotient
    ref = TestGraph(
        [("t1", 1), ("t2", 1), ("s", 2)],
        [Edge("e1", "s", "t1", 1), Edge("e2", "s", "t2", 1)],
        reference=True,
    )
    aux = build_auxiliary(ref)
    # order: t1, t2, s, internal(e1), internal(e2)
    pi = SetPartition.from_blocks(5, [[1], [2], [3], [4, 5]])
    rt = rho_tilde(aux, pi)
    assert rt.blocks == ((1, 2), (3,))
    # the plain restriction refines rho_tilde
    rho = restrict(pi, [1, 2, 3])
    idx = rt.block_index()
    for b in rho.blocks:
        assert len({idx[x] for x in b}) == 1


def test_rho_tilde_discrete():
    aux = build_auxiliary(single_edge(1))
    rt = rho_tilde(aux, SetPartition.singletons(3))
    assert rt == SetPartition.singletons(2)


def test_rho_tilde_rejects_non_split():
    aux = build_auxiliary(single_edge(1))
    with pytest.raises(NonSplitPartitionError):
        rho_tilde(aux, SetPartition.from_blocks(3, [[1, 3], [2]]))


def test_has_centered_support():
    aux = build_auxiliary(single_edge(3))
    merged = SetPartition.from_blocks(5, [[1], [2], [3, 4, 5]])
    assert has_centered_support(aux, merged)
    lopsided = SetPartition.from_blocks(5, [[1], [2], [3, 4], [5]])
    assert not has_centered_support(aux, lopsided)


def test_split_partitions_counts():
    g = graph({1: 0, 2: 0, 3: 1, 4: 2}, [])
    # Bell(2) * Bell(1) * Bell(1) = 2 split partitions
    assert sum(1 for _ in split_partitions(g)) == 2
    full = sum(1 for _ in enumerate_set_partitions(4))
    assert full == 15  # splitness is a real restriction


def test_moment_cycle_shapes():
    m1 = moment_cycle(1, "y")
    assert len(m1.vertices) == 2 and len(m1.edges) == 2
    m2 = moment_cycle(2, "y")
    assert len(m2.vertices) == 4 and len(m2.edges) == 4
    rep = classify(m2)
    assert rep.long_cycles and len(rep.long_cycles[0]) == 4
    assert m2.is_reference


def test_connected_components():
    g = graph({1: 0, 2: 0, 3: 0}, [("a", 1, 2, "m")])
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[1, 2], [3]]
