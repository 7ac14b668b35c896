"""Trace-engine tests: evaluation, traces, the Moebius identity, delta0."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from pwtraffic.graphs import Edge, GraphMonomial, TestGraph, moment_cycle
from pwtraffic.traffic import (
    BlockLayout,
    MatrixFamily,
    combinatorial_trace,
    delta0,
    embed,
    eval_monomial,
    extract,
    falling_factorial,
    injective_trace,
    moebius_check,
    sample_trace,
    tau_estimate,
    tau_estimates,
)

RNG = np.random.default_rng(20240817)


def combinatorial_trace_all_maps(g: TestGraph, family: MatrixFamily) -> object:
    """Oracle: literal sum over all maps V -> [N] with embedded matrices."""
    layout = family.layout
    embedded = {}
    for label, lm in family.items.items():
        embedded[label] = embed(lm.matrix, (lm.dst_block, lm.src_block), layout).tolist()
    order = g.vertex_ids
    pos = {v: i for i, v in enumerate(order)}
    total = 0
    for assign in itertools.product(range(layout.N), repeat=len(order)):
        prod = 1
        for e in g.edges:
            prod = prod * embedded[e.label][assign[pos[e.dst]]][assign[pos[e.src]]]
            if prod == 0:
                break
        total += prod
    return total


def one_block_family(layout_n, mats):
    lay = BlockLayout(layout_n, 0, 0)
    fam = MatrixFamily(lay)
    for name, m in mats.items():
        fam.add(name, m, src_block=0, dst_block=0)
    return fam


def rand_int(shape, lo=-3, hi=3):
    return RNG.integers(lo, hi + 1, size=shape)


def test_embed_examples():
    lay = BlockLayout(1, 1, 1)
    out = embed(np.array([[5]]), (1, 2), lay)
    assert out[1, 2] == 5 and out.sum() == 5
    assert embed(np.zeros((1, 1)), (0, 0), lay).sum() == 0
    lay2 = BlockLayout(2, 3, 4)
    a = rand_int((3, 4))
    assert (extract(embed(a, (1, 2), lay2), (1, 2), lay2) == a).all()


def test_embed_shape_mismatch():
    with pytest.raises(ValueError):
        embed(np.zeros((2, 2)), (1, 2), BlockLayout(1, 1, 1))


def test_eval_monomial_path_is_matrix_product():
    lay = BlockLayout(3, 3, 3)
    a, b = rand_int((3, 3)), rand_int((3, 3))
    fam = MatrixFamily(lay).add("A", a, 0, 1).add("B", b, 2, 0)
    g = TestGraph(
        [("i", 2), ("m", 0), ("o", 1)],
        [Edge("e1", "i", "m", "B"), Edge("e2", "m", "o", "A")],
    )
    out = eval_monomial(GraphMonomial(g, input="i", output="o"), fam)
    assert (out == a @ b).all()


def test_eval_monomial_chain_of_four():
    lay = BlockLayout(3, 3, 3)
    mats = {f"M{k}": rand_int((3, 3)) for k in range(4)}
    fam = MatrixFamily(lay)
    for k in range(4):
        fam.add(f"M{k}", mats[f"M{k}"], 0, 0)
    vertices = [(i, 0) for i in range(5)]
    edges = [Edge(k, k, k + 1, f"M{k}") for k in range(4)]
    g = TestGraph(vertices, edges)
    out = eval_monomial(GraphMonomial(g, input=0, output=4), fam)
    want = mats["M3"] @ mats["M2"] @ mats["M1"] @ mats["M0"]
    assert (out == want).all()


def test_eval_monomial_single_edge():
    lay = BlockLayout(4, 0, 0)
    a = rand_int((4, 4))
    fam = one_block_family(4, {"A": a})
    g = TestGraph([("i", 0), ("o", 0)], [Edge("e", "i", "o", "A")])
    out = eval_monomial(GraphMonomial(g, input="i", output="o"), fam)
    assert (out == a).all()


def test_eval_monomial_entrywise_square():
    # the 2-internal-vertex fan evaluates a square entrywise: (WX) o (WX)
    w, x = rand_int((2, 2)), rand_int((2, 2))
    fam = one_block_family(2, {"w": w, "x": x})
    vertices = [("i", 0), ("o", 0), ("v1", 0), ("v2", 0)]
    edges = []
    for k in (1, 2):
        edges.append(Edge(f"x{k}", "i", f"v{k}", "x"))
        edges.append(Edge(f"w{k}", f"v{k}", "o", "w"))
    g = TestGraph(vertices, edges)
    out = eval_monomial(GraphMonomial(g, input="i", output="o"), fam)
    assert (out == (w @ x) ** 2).all()


def test_combinatorial_trace_examples():
    fam = one_block_family(5, {"A": rand_int((5, 5))})
    lonely = TestGraph([("v", 0)], [])
    assert combinatorial_trace(lonely, fam) == 5
    one = TestGraph([(1, 0), (2, 0)], [Edge("e", 1, 2, "A")])
    assert combinatorial_trace(one, fam) == fam["A"].matrix.sum()
    b = rand_int((5, 5))
    fam.add("B", b, 0, 0)
    cyc = TestGraph([(1, 0), (2, 0)], [Edge("p", 1, 2, "A"), Edge("q", 2, 1, "B")])
    assert combinatorial_trace(cyc, fam) == int(np.trace(fam["A"].matrix @ b))


def test_injective_trace_examples():
    a = rand_int((4, 4))
    fam = one_block_family(4, {"A": a})
    one = TestGraph([(1, 0), (2, 0)], [Edge("e", 1, 2, "A")])
    off_diag = int(a.sum() - np.trace(a))
    assert injective_trace(one, fam) == off_diag
    crowded = TestGraph([(i, 1) for i in range(3)], [])
    lay = BlockLayout(4, 2, 1)
    assert injective_trace(crowded, MatrixFamily(lay)) == 0


def test_split_restriction_equals_all_maps():
    # with embedded rectangular matrices, summing over all of [N] adds nothing
    lay = BlockLayout(2, 2, 1)
    fam = MatrixFamily(lay)
    fam.add("A", rand_int((2, 2)), src_block=0, dst_block=1)
    fam.add("B", rand_int((2, 1)), src_block=2, dst_block=0)
    g = TestGraph(
        [("s", 2), ("m", 0), ("t", 1)],
        [Edge("e1", "s", "m", "B"), Edge("e2", "m", "t", "A")],
    )
    assert combinatorial_trace(g, fam) == combinatorial_trace_all_maps(g, fam)


def test_color_mismatch_rejected():
    lay = BlockLayout(2, 2, 2)
    fam = MatrixFamily(lay).add("A", rand_int((2, 2)), src_block=0, dst_block=1)
    g = TestGraph([("s", 2), ("t", 1)], [Edge("e", "s", "t", "A")])
    with pytest.raises(ValueError):
        combinatorial_trace(g, fam)


def random_colored_graph(rng, max_v=4, max_e=4):
    n_v = int(rng.integers(1, max_v + 1))
    colors = [int(rng.integers(0, 3)) for _ in range(n_v)]
    n_e = int(rng.integers(1, max_e + 1))
    edges = []
    labels = {}
    for k in range(n_e):
        s, t = int(rng.integers(0, n_v)), int(rng.integers(0, n_v))
        label = ("L", colors[s], colors[t], k % 2)
        labels[label] = (colors[s], colors[t])
        edges.append(Edge(k, s, t, label))
    g = TestGraph([(i, colors[i]) for i in range(n_v)], edges)
    return g, labels


def test_moebius_identity_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        sizes = rng.integers(1, 3, size=3)
        lay = BlockLayout(int(sizes[0]), int(sizes[1]), int(sizes[2]))
        g, labels = random_colored_graph(rng)
        fam = MatrixFamily(lay)
        for label, (cs, ct) in labels.items():
            fam.add(label, rng.integers(-3, 4, size=(lay.size(ct), lay.size(cs))), cs, ct)
        rep = moebius_check(g, fam)
        assert rep.equal, (rep.lhs, rep.rhs)


def test_moebius_single_edge_diag_split():
    a = rand_int((3, 3))
    fam = one_block_family(3, {"A": a})
    g = TestGraph([(1, 0), (2, 0)], [Edge("e", 1, 2, "A")])
    rep = moebius_check(g, fam)
    assert rep.lhs == a.sum()
    diag = int(np.trace(a))
    assert rep.rhs == (a.sum() - diag) + diag


def test_moebius_on_niche_expansion_graph():
    # the two-variable expansion of a single labeled edge, small blocks
    from pwtraffic.graphs import build_auxiliary, single_edge

    aux = build_auxiliary(single_edge(3))
    lay = BlockLayout(2, 2, 2)
    fam = MatrixFamily(lay)
    fam.add("w", rand_int((2, 2)), src_block=0, dst_block=1)
    fam.add("x", rand_int((2, 2)), src_block=2, dst_block=0)
    rep = moebius_check(aux.graph, fam)
    assert rep.equal and isinstance(rep.lhs, int)


def test_moebius_size_guard():
    lay = BlockLayout(1, 1, 1)
    g = TestGraph([(i, 0) for i in range(9)], [])
    with pytest.raises(ValueError):
        moebius_check(g, MatrixFamily(lay))


def test_delta0_examples():
    lay = BlockLayout(3, 2, 2)
    fam = MatrixFamily(lay).add("J", np.ones((2, 3), dtype=int), 0, 1)
    g = TestGraph([("m", 0), ("t", 1)], [Edge("e", "m", "t", "J")])
    assert delta0(g, fam, mode="exact") == 1
    empty = TestGraph([("m", 0), ("t", 1)], [])
    assert delta0(empty, fam, mode="exact") == 1


def test_delta0_falling_factorial_relation():
    # tau0 = N^{-1} (N0)_{v0} (N1)_{v1} (N2)_{v2} delta0, exactly
    lay = BlockLayout(2, 2, 2)
    fam = MatrixFamily(lay)
    fam.add("u", rand_int((2, 2)), src_block=0, dst_block=1)
    fam.add("v", rand_int((2, 2)), src_block=2, dst_block=0)
    g = TestGraph(
        [("a", 0), ("b", 1), ("c", 2)],
        [Edge("r", "a", "b", "u"), Edge("s", "c", "a", "v")],
    )
    d0 = delta0(g, fam, mode="exact")
    inj = injective_trace(g, fam)
    counts = falling_factorial(2, 1) ** 3
    assert Fraction(inj, lay.N) == Fraction(counts, lay.N) * d0


def test_delta0_monte_carlo_reproducible():
    lay = BlockLayout(4, 3, 3)
    fam = MatrixFamily(lay).add("A", rand_int((3, 4)).astype(float), 0, 1)
    g = TestGraph([("m", 0), ("t", 1)], [Edge("e", "m", "t", "A")])
    v1 = delta0(g, fam, mode="monte_carlo", trials=64, seed=5)
    v2 = delta0(g, fam, mode="monte_carlo", trials=64, seed=5)
    assert v1 == v2
    exact = float(delta0(g, fam, mode="exact"))
    big = delta0(g, fam, mode="monte_carlo", trials=5000, seed=5)
    assert abs(big - exact) < 0.3


def test_delta0_guards():
    lay = BlockLayout(60, 60, 60)
    fam = MatrixFamily(lay).add("A", np.ones((60, 60)), 0, 1)
    g = TestGraph([(i, 0) for i in range(4)] + [("t", 1)], [Edge("e", 0, "t", "A")])
    with pytest.raises(ValueError):
        delta0(g, fam, mode="exact")
    with pytest.raises(ValueError):
        delta0(g, fam, mode="monte_carlo", trials=0)


def test_sample_trace_matches_direct_products():
    rng = np.random.default_rng(2)
    lay = BlockLayout(6, 5, 4)
    y = rng.standard_normal((5, 4))
    fam = MatrixFamily(lay).add("Y", y, src_block=2, dst_block=1)
    m1 = moment_cycle(1, "Y")
    assert np.isclose(sample_trace(m1, fam), np.trace(y @ y.T))
    m2 = moment_cycle(2, "Y")
    assert np.isclose(sample_trace(m2, fam), np.trace(y @ y.T @ y @ y.T))
    # walk agrees with plain labeling enumeration on a small instance
    assert np.isclose(sample_trace(m2, fam), float(combinatorial_trace(m2, fam)))


def test_tau_estimate_deterministic_family():
    lay = BlockLayout(2, 2, 2)
    fixed = np.arange(4.0).reshape(2, 2)

    def sampler(rng):
        return MatrixFamily(lay).add("Y", fixed, 2, 1)

    g = moment_cycle(1, "Y")
    est = tau_estimate(g, sampler, trials=5, seed=1)
    assert est.std_error == 0
    assert np.isclose(est.mean, np.trace(fixed @ fixed.T) / lay.N)


def test_tau_estimate_reproducible_and_centered():
    lay = BlockLayout(30, 30, 30)

    def sampler(rng):
        return MatrixFamily(lay).add("Y", rng.standard_normal((30, 30)) / 30, 2, 1)

    g = TestGraph([("t", 1), ("s", 2)], [Edge("e", "s", "t", "Y")])
    est1 = tau_estimate(g, sampler, trials=50, seed=9)
    est2 = tau_estimate(g, sampler, trials=50, seed=9)
    assert est1 == est2
    assert abs(est1.mean) <= 3 * est1.std_error
    single = tau_estimate(g, sampler, trials=1, seed=9)
    assert single.std_error is None


def test_tau_estimate_order_fixed_under_map_fn():
    lay = BlockLayout(10, 10, 10)

    def sampler(rng):
        return MatrixFamily(lay).add("Y", rng.standard_normal((10, 10)), 2, 1)

    g = moment_cycle(1, "Y")
    seq = tau_estimate(g, sampler, trials=16, seed=3)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        par = tau_estimate(g, sampler, trials=16, seed=3, map_fn=pool.map)
    assert seq == par


# -- the einsum contraction against the labeling enumeration -------------------


def float_family(rng, lay, labels):
    fam = MatrixFamily(lay)
    for label, (cs, ct) in labels.items():
        fam.add(label, rng.standard_normal((lay.size(ct), lay.size(cs))), cs, ct)
    return fam


def abs_family(fam):
    out = MatrixFamily(fam.layout)
    for label, lm in fam.items.items():
        out.add(label, np.abs(lm.matrix), lm.src_block, lm.dst_block)
    return out


def k23(label="Y"):
    vertices = [(("t", i), 1) for i in range(2)] + [(("s", j), 2) for j in range(3)]
    edges = [Edge((i, j), ("s", j), ("t", i), label) for i in range(2) for j in range(3)]
    return TestGraph(vertices, edges)


def special_graphs():
    """Self-loops, parallel edges, isolated vertices and K_{2,3}, with the
    (src color, dst color) of every label."""
    loops = TestGraph(
        [("a", 0), ("b", 0), ("lonely", 2)],
        [Edge(0, "a", "a", "A"), Edge(1, "a", "b", "A"), Edge(2, "b", "a", "A"), Edge(3, "b", "b", "A")],
    )
    parallel = TestGraph(
        [("t", 1), ("s", 2), ("u", 1)],
        [Edge(0, "s", "t", "Y"), Edge(1, "s", "t", "Y"), Edge(2, "s", "t", "Y"), Edge(3, "s", "u", "Y")],
    )
    isolated = TestGraph([("v", 0), ("w", 1), ("t", 1), ("s", 2)], [Edge(0, "s", "t", "Y")])
    edgeless = TestGraph([("v", 0), ("w", 2)], [])
    labels = {"A": (0, 0), "Y": (2, 1)}
    return [loops, parallel, isolated, edgeless, k23()], labels


def assert_trace_matches_enumeration(g, fam):
    got = sample_trace(g, fam)
    want = float(combinatorial_trace(g, fam))
    scale = float(combinatorial_trace(g, abs_family(fam)))
    assert abs(got - want) <= 1e-12 * scale, (got, want, scale)


def test_sample_trace_matches_combinatorial_trace_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        sizes = rng.integers(1, 4, size=3)
        lay = BlockLayout(int(sizes[0]), int(sizes[1]), int(sizes[2]))
        g, labels = random_colored_graph(rng, max_v=5, max_e=6)
        assert_trace_matches_enumeration(g, float_family(rng, lay, labels))


def test_sample_trace_special_shapes():
    rng = np.random.default_rng(12)
    graphs, labels = special_graphs()
    lay = BlockLayout(3, 2, 4)
    for g in graphs:
        assert_trace_matches_enumeration(g, float_family(rng, lay, labels))
    # K_{2,3} in one 300-sized family, far past any enumeration
    big = BlockLayout(300, 300, 300)
    y = rng.standard_normal((300, 300))
    gram = y @ y.T
    fam = MatrixFamily(big).add("Y", y, 2, 1)
    # each pair of targets shares three sources: sum over t1, t2 of (Y Y^t)[t1, t2]^3
    assert np.isclose(sample_trace(k23(), fam), float(np.sum(gram**3)), rtol=1e-12)


def brute_monomial(mono, fam):
    g = mono.graph
    lay = fam.layout
    order = g.vertex_ids
    pos = {v: k for k, v in enumerate(order)}
    out = np.zeros((lay.size(g.color[mono.output]), lay.size(g.color[mono.input])))
    for assign in itertools.product(*(range(lay.size(g.color[v])) for v in order)):
        prod = 1.0
        for e in g.edges:
            prod *= fam[e.label].matrix[assign[pos[e.dst]], assign[pos[e.src]]]
        out[assign[pos[mono.output]], assign[pos[mono.input]]] += prod
    return out


def test_eval_monomial_matches_enumeration():
    rng = np.random.default_rng(13)
    graphs, labels = special_graphs()
    cases = [(g, v, w) for g in graphs for v in g.vertex_ids[:2] for w in g.vertex_ids[-2:]]
    for _ in range(30):
        g, rand_labels = random_colored_graph(rng, max_v=4, max_e=5)
        ids = g.vertex_ids
        cases.append((g, ids[int(rng.integers(len(ids)))], ids[int(rng.integers(len(ids)))]))
        labels.update(rand_labels)
    lay = BlockLayout(2, 3, 2)
    fam = float_family(rng, lay, labels)
    for g, out_v, in_v in cases:
        mono = GraphMonomial(g, input=in_v, output=out_v)
        want = brute_monomial(mono, fam)
        got = eval_monomial(mono, fam)
        scale = brute_monomial(mono, abs_family(fam)).max(initial=0.0)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


def test_tau_estimates_share_one_family_per_trial():
    lay = BlockLayout(8, 6, 7)
    draws = []

    def sampler(rng):
        y = rng.standard_normal((6, 7))
        draws.append(1)
        return MatrixFamily(lay).add("Y", y, 2, 1)

    graphs = [moment_cycle(1, "Y"), moment_cycle(2, "Y"), k23()]
    values = [[], [], []]
    joint = tau_estimates(graphs, sampler, trials=9, seed=4, values_out=values)
    assert len(draws) == 9
    for g, est, vals in zip(graphs, joint, values):
        single_values = []
        assert tau_estimate(g, sampler, trials=9, seed=4, values_out=single_values) == est
        assert single_values == vals
