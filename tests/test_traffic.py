"""Trace-engine tests: evaluation, traces, the Moebius identity, delta0."""

import itertools
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from pwtraffic.graphs import Edge, TestGraph, moment_cycle
from pwtraffic.hermite import hermite
from pwtraffic.models import (
    ProfiledEnsemble,
    equivalent_sampler,
    equivalent_sum,
    model_sampler,
    pw_matrix,
)
from pwtraffic.profiles import StepProfile
from pwtraffic import traffic
from pwtraffic.traffic import (
    BlockLayout,
    MatrixFamily,
    _contract,
    combinatorial_trace,
    sample_trace,
    tau_estimates,
)
from graphs_oracle import GraphMonomial
from models_oracle import unit_skewed_law
from traffic_oracle import (
    contract_oracle,
    delta0,
    embed,
    eval_monomial,
    extract,
    falling_factorial,
    injective_trace,
    moebius_check,
    recording_map,
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
    from graphs_oracle import build_auxiliary
    from pwtraffic.graphs import single_edge

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
    assert delta0(g, fam) == 1
    empty = TestGraph([("m", 0), ("t", 1)], [])
    assert delta0(empty, fam) == 1


def delta0_all_maps(g: TestGraph, family: MatrixFamily) -> object:
    """Oracle: literal average over every injective split map."""
    lay = family.layout
    by_color = [[v for v in g.vertex_ids if g.color[v] == c] for c in range(3)]
    pools = [itertools.permutations(range(lay.size(c)), len(by_color[c])) for c in range(3)]
    total, n_maps = 0, 0
    for combo in itertools.product(*pools):
        assign = {v: val for vs, vals in zip(by_color, combo) for v, val in zip(vs, vals)}
        prod = 1
        for e in g.edges:
            prod = prod * family[e.label].matrix[assign[e.dst], assign[e.src]].item()
        total += prod
        n_maps += 1
    return Fraction(total, n_maps) if isinstance(total, int) else total / n_maps


def test_delta0_is_the_injective_map_average():
    lay = BlockLayout(3, 3, 2)
    graphs = [
        TestGraph([("a", 0), ("b", 1), ("c", 2)], [Edge("r", "a", "b", "u"), Edge("q", "c", "a", "v")]),
        TestGraph([("a", 0), ("a2", 0), ("b", 1)], [Edge("r", "a", "b", "u"), Edge("p", "a2", "b", "u"), Edge("l", "a", "a2", "s")]),
        TestGraph([("a", 0), ("a2", 0), ("a3", 0)], [Edge("l", "a", "a2", "s"), Edge("m", "a2", "a3", "s"), Edge("k", "a3", "a", "s")]),
    ]
    for shift in (0, 0.5):  # integer matrices, then float ones
        fam = MatrixFamily(lay)
        fam.add("u", rand_int((3, 3)) + shift, src_block=0, dst_block=1)
        fam.add("v", rand_int((3, 2)) + shift, src_block=2, dst_block=0)
        fam.add("s", rand_int((3, 3)) + shift, src_block=0, dst_block=0)
        for g in graphs:
            got, want = delta0(g, fam), delta0_all_maps(g, fam)
            if shift:
                assert got == pytest.approx(want, rel=1e-12)
            else:
                assert got == want and isinstance(got, Fraction)


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
    d0 = delta0(g, fam)
    inj = injective_trace(g, fam)
    counts = falling_factorial(2, 1) ** 3
    assert Fraction(inj, lay.N) == Fraction(counts, lay.N) * d0


def test_delta0_guards():
    lay = BlockLayout(60, 60, 60)
    fam = MatrixFamily(lay).add("A", np.ones((60, 60)), 0, 1)
    g = TestGraph([(i, 0) for i in range(4)] + [("t", 1)], [Edge("e", 0, "t", "A")])
    with pytest.raises(ValueError, match="guarded at 1e6 maps"):
        delta0(g, fam)
    small = MatrixFamily(BlockLayout(1, 1, 1)).add("A", np.ones((1, 1)), 0, 1)
    two = TestGraph([(0, 0), (1, 0), ("t", 1)], [Edge("e", 0, "t", "A")])
    with pytest.raises(ValueError, match="no injective split maps"):
        delta0(two, small)


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
    est = tau_estimates([g], sampler, trials=5, seed=1)[0]
    assert est.std_error == 0
    assert np.isclose(est.mean, np.trace(fixed @ fixed.T) / lay.N)


def test_tau_estimate_reproducible_and_centered():
    lay = BlockLayout(30, 30, 30)

    def sampler(rng):
        return MatrixFamily(lay).add("Y", rng.standard_normal((30, 30)) / 30, 2, 1)

    g = TestGraph([("t", 1), ("s", 2)], [Edge("e", "s", "t", "Y")])
    est1 = tau_estimates([g], sampler, trials=50, seed=9)[0]
    est2 = tau_estimates([g], sampler, trials=50, seed=9)[0]
    assert est1 == est2
    assert abs(est1.mean) <= 3 * est1.std_error
    single = tau_estimates([g], sampler, trials=1, seed=9)[0]
    assert single.std_error is None


def test_tau_estimate_order_fixed_under_map_fn():
    lay = BlockLayout(10, 10, 10)

    def sampler(rng):
        return MatrixFamily(lay).add("Y", rng.standard_normal((10, 10)), 2, 1)

    g = moment_cycle(1, "Y")
    seq = tau_estimates([g], sampler, trials=16, seed=3)[0]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        par = tau_estimates([g], sampler, trials=16, seed=3, map_fn=pool.map)[0]
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
    joint = tau_estimates(graphs, sampler, trials=9, seed=4, map_fn=recording_map(values))
    assert len(draws) == 9
    for g, est, vals in zip(graphs, joint, values):
        assert tau_estimates([g], sampler, trials=9, seed=4)[0] == est
        single_values = [[]]
        assert tau_estimates([g], sampler, trials=9, seed=4, map_fn=recording_map(single_values)) == [est]
        assert single_values == [vals]


# -- the memoized contraction against the memo-free einsum -------------------------


def assert_contract_matches_oracle(g, fam):
    got = _contract(g, fam)
    want = contract_oracle(g, fam)
    scale = np.abs(contract_oracle(g, abs_family(fam))).max(initial=0.0)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale, (got, want, scale)


def test_memoized_contraction_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        sizes = rng.integers(1, 4, size=3)
        lay = BlockLayout(int(sizes[0]), int(sizes[1]), int(sizes[2]))
        g, labels = random_colored_graph(rng, max_v=5, max_e=6)
        fam = float_family(rng, lay, labels)
        assert_contract_matches_oracle(g, fam)


def test_memoized_contraction_matches_oracle_on_special_shapes():
    rng = np.random.default_rng(14)
    graphs, labels = special_graphs()
    lay = BlockLayout(3, 2, 4)
    fam = float_family(rng, lay, labels)
    for g in graphs:
        assert_contract_matches_oracle(g, fam)
    big = MatrixFamily(BlockLayout(30, 40, 50)).add("Y", rng.standard_normal((40, 50)), 2, 1)
    assert_contract_matches_oracle(k23(), big)


def product_square(order):
    """Tr[(A B)(A B)]: the product A B is needed as (i, j) and as (j, i)."""
    ids = {"i": ("i", 1), "j": ("j", 1), "k": ("k", 0), "l": ("l", 0)}
    edges = [Edge(0, "j", "k", "B"), Edge(1, "k", "i", "A"), Edge(2, "i", "l", "B"), Edge(3, "l", "j", "A")]
    return TestGraph([ids[v] for v in order], edges)


def record_leaf_products(monkeypatch, leaves) -> list[str]:
    """Subscripts of every einsum call whose operands are all matrices in ``leaves``."""
    calls = []
    einsum = np.einsum

    def recording(subscripts, *operands, **kwargs):
        if all(any(op is m for m in leaves) for op in operands):
            calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    return calls


def test_reused_product_is_transposed(monkeypatch):
    rng = np.random.default_rng(15)
    lay = BlockLayout(7, 5, 1)
    a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 5))
    want = np.trace(a @ b @ a @ b)
    assert abs(want - np.sum((a @ b) ** 2)) > 1.0  # a missed transposition would show
    calls = record_leaf_products(monkeypatch, (a, b))
    for order in itertools.permutations("ijkl"):
        fam = MatrixFamily(lay).add("A", a, 0, 1).add("B", b, 1, 0)
        calls.clear()
        got = sample_trace(product_square(order), fam)
        assert len(calls) == 1
        assert np.isclose(got, want, rtol=1e-12)


def test_moments_alone_and_together_are_bit_identical():
    rng = np.random.default_rng(16)
    lay = BlockLayout(40, 30, 50)
    y = rng.standard_normal((30, 50))
    graphs = [moment_cycle(k, "Y") for k in (1, 2, 3, 4)]
    alone = [sample_trace(g, MatrixFamily(lay).add("Y", y, 2, 1)) for g in graphs]
    for g, value in zip(graphs, alone):
        assert np.isclose(value, float(contract_oracle(g, MatrixFamily(lay).add("Y", y, 2, 1))), rtol=1e-12)
    for order in (graphs, graphs[::-1], graphs[1::2] + graphs[::2]):
        fam = MatrixFamily(lay).add("Y", y, 2, 1)
        together = {id(g): sample_trace(g, fam) for g in order}
        assert [together[id(g)] for g in graphs] == alone


def test_moment_4_makes_one_gram(monkeypatch):
    lay = BlockLayout(20, 30, 25)
    y = np.random.default_rng(17).standard_normal((30, 25))
    fam = MatrixFamily(lay).add("Y", y, 2, 1)
    calls = record_leaf_products(monkeypatch, (y,))
    sample_trace(moment_cycle(4, "Y"), fam)
    (gram,) = calls
    inputs, out = gram.split("->")
    first, second = inputs.split(",")
    assert len(out) == 2 and len(set(first) & set(second) - set(out)) == 1


# -- trial memory ----------------------------------------------------------------


def profiled_ensemble(n0, n1, n2):
    """Skewed laws on both factors (so a deformation) and 2x2 step profiles."""
    return ProfiledEnsemble(
        BlockLayout(n0, n1, n2),
        unit_skewed_law(),
        unit_skewed_law(),
        StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]),
        StepProfile.of([[2, 1], [1, Fraction(1, 2)]]),
    )


@pytest.mark.skipif(not traffic._keep_freed_heap(), reason="the heap setting needs glibc's mallopt")
def test_warm_trials_allocate_no_matrix():
    # with freed heap memory kept in the process, a warm trial's matrices
    # land on pages it has touched before: 4 trials make fewer minor page
    # faults than the pages of the smallest matrix a trial makes (the
    # moment-2 Gram, min(N1, N2) squared), where fresh pages fault over a
    # thousand times
    import resource  # Unix only, like the setting

    ens = profiled_ensemble(240, 200, 180)
    h = hermite(5)  # chaos orders 3 and 5
    graphs = [moment_cycle(1, h), moment_cycle(2, h)]
    smallest_pages = 8 * 180 * 180 // resource.getpagesize()
    for make in (model_sampler, equivalent_sampler):
        sampler = make(ens, [h])
        tau_estimates(graphs, sampler, trials=2, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        tau_estimates(graphs, sampler, trials=4, seed=1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < smallest_pages, (make.__name__, faults)


def test_heap_setting_is_quiet_without_mallopt(monkeypatch):
    monkeypatch.setattr(traffic.ctypes, "CDLL", lambda name: object())  # a C library without mallopt
    assert traffic._keep_freed_heap() is False

    def no_library(name):
        raise AssertionError("no C library is opened off Linux")

    monkeypatch.setattr(traffic.ctypes, "CDLL", no_library)
    monkeypatch.setattr(traffic.sys, "platform", "darwin")
    assert traffic._keep_freed_heap() is False


def test_buffers_that_reach_a_caller_stay_unchanged():
    ens = profiled_ensemble(40, 20, 30)
    lay = ens.layout
    h = hermite(5)
    model_family = model_sampler(ens, [h])(np.random.default_rng(1))
    equivalent_family = equivalent_sampler(ens, [h])(np.random.default_rng(1))
    # Y Y^t, 20 x 20: the shape of the moment-2 Gram every trial below makes
    y = RNG.standard_normal((20, 30))
    path = TestGraph([("o", 1), ("m", 2), ("i", 1)], [Edge(0, "m", "o", "Y"), Edge(1, "m", "i", "Y")])
    gram = eval_monomial(GraphMonomial(path, input="i", output="o"), MatrixFamily(lay).add("Y", y, 2, 1))
    assert np.array_equal(gram, y @ y.T)
    kept = [model_family[h].matrix, equivalent_family[h].matrix, gram]
    kept += [pw_matrix(h, *ens.sample(2), lay), equivalent_sum(h, ens, 2)]
    copies = [m.copy() for m in kept]
    graphs = [moment_cycle(1, h), moment_cycle(2, h)]
    with ThreadPoolExecutor(max_workers=3) as pool:
        for make in (model_sampler, equivalent_sampler):
            tau_estimates(graphs, make(ens, [h]), trials=6, seed=3)
            tau_estimates(graphs, make(ens, [h]), trials=6, seed=4, map_fn=pool.map)
    for m, c in zip(kept, copies):
        assert m.tobytes() == c.tobytes()
    assert model_family[h].matrix.tobytes() == model_sampler(ens, [h])(np.random.default_rng(1))[h].matrix.tobytes()
