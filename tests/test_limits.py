"""Limit-calculator tests: exact values, component identities, the scan."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from pwtraffic.graphs import Edge, TestGraph, classify, moment_cycle, quotient, single_edge, split_partitions
from pwtraffic.hermite import Polynomial, expect_scaled, hermite, monomial
from pwtraffic.limits import (
    MAX_LIMIT_EDGES,
    MAX_SCAN_STATES,
    RULES,
    LimitParams,
    delta0_graphon,
    eta_support_scan,
    limit_B,
    limit_equivalent_sum,
    limit_lin,
    limit_per,
    limit_pw,
    limit_values,
)
from pwtraffic.models import (
    EntryLaw,
    ProfiledEnsemble,
    distinct_labels,
    equivalent_sampler,
    model_sampler,
)
from pwtraffic.partitions import SetPartition
from pwtraffic.profiles import StepProfile
from pwtraffic.traffic import BlockLayout, MatrixFamily, tau_estimates
from graphs_oracle import all_cycles
from limit_oracle import _limit as oracle_limit
from limit_oracle import delta0_graphon_oracle, limit_values_loop
from models_oracle import realized_profile, unit_skewed_law
from pw_oracle import pw_moments
from traffic_oracle import delta0
from refgraphs import labeled_reference_graphs

THIRD = Fraction(1, 3)
CONSTANT = LimitParams(psi=(THIRD, THIRD, THIRD))
SKEWED = LimitParams(psi=(THIRD, THIRD, THIRD), m3_w=Fraction(3, 2), m3_x=Fraction(3, 2))
H1, H3, H5, G3, G5 = monomial(1), monomial(3), monomial(5), hermite(3), hermite(5)
G3_H1 = Polynomial([0, -2, 0, 1])  # g3 + h1
G5_H3 = Polynomial([0, 15, 0, -9, 0, 1])  # g5 + h3
# step profiles and unequal, skewed third moments
STEPPED = LimitParams(
    psi=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    m3_w=Fraction(3, 2),
    m3_x=Fraction(-5, 4),
    profile_w=StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]),
    profile_x=StepProfile.of([[2, 1], [1, Fraction(1, 2)]]),
)


# -- graphon delta0 --------------------------------------------------------------


def test_delta0_graphon_constant_is_one():
    g = TestGraph([("d", 0), ("t", 1)], [Edge("w0", "d", "t", "w")])
    assert delta0_graphon(g, CONSTANT) == 1


def test_delta0_graphon_zero_profile():
    params = LimitParams(psi=(THIRD, THIRD, THIRD), profile_w=StepProfile.constant(0))
    g = TestGraph([("d", 0), ("t", 1)], [Edge("w0", "d", "t", "w")])
    assert delta0_graphon(g, params) == 0


def test_delta0_graphon_two_cell_average():
    params = LimitParams(
        psi=(THIRD, THIRD, THIRD), profile_w=StepProfile.of([[2, Fraction(1, 2)]])
    )
    g = TestGraph([("d", 0), ("t", 1)], [Edge("w0", "d", "t", "w")])
    assert delta0_graphon(g, params) == Fraction(5, 4)


def test_delta0_graphon_matches_finite_n():
    # the exact finite-N injective-map average is within 2% of the cell average at N=1200
    params = LimitParams(
        psi=(THIRD, THIRD, THIRD), profile_w=StepProfile.of([[2, Fraction(1, 2)]])
    )
    g = TestGraph([("d", 0), ("t", 1)], [Edge("w0", "d", "t", "w")])
    exact = float(delta0_graphon(g, params))
    lay = BlockLayout(400, 400, 400)
    fam = MatrixFamily(lay).add(
        "w", realized_profile(StepProfile.of([[2, Fraction(1, 2)]]), 400, 400), src_block=0, dst_block=1
    )
    finite = delta0(g, fam)  # 400 * 400 injective maps
    assert abs(finite - exact) <= 0.02 * exact


def test_delta0_graphon_joint_refinement():
    # a color-0 vertex refines the w-column cells jointly with the x-row cells
    params = LimitParams(
        psi=(THIRD, THIRD, THIRD),
        profile_w=StepProfile.of([[1, 2]]),
        profile_x=StepProfile.of([[3], [5]]),
    )
    g = TestGraph(
        [("d", 0), ("t", 1), ("s", 2)],
        [Edge("w0", "d", "t", "w"), Edge("x0", "s", "d", "x")],
    )
    # both axes have 2 cells over [0,1]; the joint values are (1,3), (2,5)
    assert delta0_graphon(g, params) == Fraction(1 * 3 + 2 * 5, 2)


def random_wx_graph(rng: random.Random) -> TestGraph:
    """Colour-0/1/2 vertices, w edges 0 -> 1, x edges 2 -> 0, some vertices isolated."""
    by_color = {c: [(c, k) for k in range(rng.randint(0 if c else 1, 3))] for c in (0, 1, 2)}
    edges = []
    for k in range(rng.randint(0, 5)):
        if by_color[1] and (not by_color[2] or rng.random() < 0.5):
            edges.append(Edge(k, rng.choice(by_color[0]), rng.choice(by_color[1]), "w"))
        elif by_color[2]:
            edges.append(Edge(k, rng.choice(by_color[2]), rng.choice(by_color[0]), "x"))
    return TestGraph([(v, c) for c in (0, 1, 2) for v in by_color[c]], edges)


@pytest.mark.parametrize(
    "profile_w, profile_x",
    [
        (StepProfile.constant(), StepProfile.constant()),
        (StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]), StepProfile.of([[Fraction(1, 2), 1], [1, 2]])),
        (StepProfile.of([[1, 2, Fraction(1, 3)]]), StepProfile.of([[Fraction(5, 2)], [Fraction(1, 4)]])),
    ],
    ids=["constant", "baseline-2x2", "1x3-2x1"],
)
def test_delta0_graphon_matches_its_oracle_on_random_graphs(profile_w, profile_x):
    # the cell tables of profiles.CellKernels against the oracle's own
    # colour-to-cell rule (cell_overlaps per vertex, coarse cell maps)
    rng = random.Random(1909)
    params = LimitParams(psi=(THIRD, THIRD, THIRD), profile_w=profile_w, profile_x=profile_x)
    for k in range(300):
        g = random_wx_graph(rng)
        assert delta0_graphon(g, params) == delta0_graphon_oracle(g, params), (k, g.vertices, g.edges)


@pytest.mark.parametrize(
    "vertices, edge",
    [
        ([("d", 0), ("t", 1)], Edge("w0", "t", "d", "w")),  # w from color 1 to color 0
        ([("s", 2), ("t", 1)], Edge("w1", "s", "t", "w")),  # w from color 2 to color 1
        ([("d", 0), ("s", 2)], Edge("x0", "d", "s", "x")),  # x from color 0 to color 2
        ([("s", 2), ("t", 1)], Edge("x1", "s", "t", "x")),  # x from color 2 to color 1
        ([("d", 0), ("t", 1)], Edge("y0", "d", "t", "y")),  # neither w nor x
    ],
)
def test_delta0_graphon_rejects_a_bad_edge(vertices, edge):
    with pytest.raises(ValueError, match=f"edge {edge.id!r}"):
        delta0_graphon(TestGraph(vertices, [edge]), STEPPED)


# -- exact limit values ------------------------------------------------------------


def test_limit_pw_examples():
    assert limit_pw(moment_cycle(1, H1), CONSTANT) == Fraction(1, 27)
    assert limit_pw(single_edge(H3), SKEWED) == THIRD * THIRD * Fraction(9, 4)
    assert limit_pw(moment_cycle(1, G3), CONSTANT) == 6 * Fraction(1, 27)


def test_limit_component_examples():
    m1_h1 = moment_cycle(1, H1)
    assert limit_lin(m1_h1, CONSTANT) == Fraction(1, 27)
    assert limit_per(m1_h1, CONSTANT) == 0
    assert limit_B(m1_h1, CONSTANT) == 0

    edge_h3 = single_edge(H3)
    assert limit_B(edge_h3, SKEWED) == limit_pw(edge_h3, SKEWED)
    assert limit_lin(edge_h3, SKEWED) == 0
    assert limit_per(edge_h3, SKEWED) == 0

    m1_g3 = moment_cycle(1, G3)
    assert limit_per(m1_g3, CONSTANT) == Fraction(6, 27)
    assert limit_lin(m1_g3, CONSTANT) == 0
    g3_half_h1 = Polynomial([0, Fraction(-1, 2), 0, Fraction(1, 2)])  # g3/2 + h1
    assert limit_lin(moment_cycle(1, g3_half_h1), CONSTANT) != 0

    # rademacher third moments kill the deterministic channel entirely
    assert limit_pw(single_edge(H3), CONSTANT) == 0


def test_limit_equivalent_sum_examples():
    assert limit_equivalent_sum(moment_cycle(1, H1), CONSTANT) == Fraction(1, 27)
    value = limit_equivalent_sum(moment_cycle(1, H3), CONSTANT)
    assert value == Fraction(15, 27) == limit_pw(moment_cycle(1, H3), CONSTANT)
    # second moment splits as E[h']^2 + f(h, h)
    assert value == Fraction(1, 27) * (9 + 6)
    assert limit_equivalent_sum(single_edge(H3), SKEWED) == limit_pw(single_edge(H3), SKEWED)


def test_limit_pw_multilinear():
    a, b = Fraction(2, 3), Fraction(-5, 7)
    combo = Polynomial([0, 0, 0, a, 0, b])  # a h3 + b h5
    g_combo = single_edge(combo)
    lhs = limit_pw(g_combo, SKEWED)
    rhs = a * limit_pw(single_edge(H3), SKEWED) + b * limit_pw(single_edge(H5), SKEWED)
    assert lhs == rhs
    two = moment_cycle(1, combo)
    lhs2 = limit_pw(two, SKEWED)
    rhs2 = (
        a * a * limit_pw(moment_cycle(1, H3), SKEWED)
        + 2 * a * b * limit_pw(TestGraph(
            [("u", 1), ("v", 2)],
            [Edge("p", "v", "u", H3), Edge("q", "v", "u", H5)],
            reference=True,
        ), SKEWED)
        + b * b * limit_pw(moment_cycle(1, H5), SKEWED)
    )
    assert lhs2 == rhs2


def test_limit_pw_isomorphism_invariance():
    params = SKEWED
    g1 = moment_cycle(2, H1)
    vertices = list(reversed(g1.vertices))
    relabel = {v: ("r", i) for i, (v, _) in enumerate(g1.vertices)}
    g2 = TestGraph(
        [(relabel[v], c) for v, c in vertices],
        [Edge(e.id, relabel[e.src], relabel[e.dst], e.label) for e in g1.edges],
        reference=True,
    )
    assert limit_pw(g1, params) == limit_pw(g2, params)


def test_limit_pw_finite_n_exact_for_linear_labels():
    # for degree-1 labels the 2-cycle expectation is exact at every finite size
    # whose blocks divide the profile cells; compare against a dense computation
    lay = BlockLayout(12, 12, 12)
    profile_w = StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]])
    profile_x = StepProfile.of([[2, 1], [1, Fraction(1, 2)]])
    params = LimitParams(psi=(THIRD, THIRD, THIRD), profile_w=profile_w, profile_x=profile_x)
    value = limit_pw(moment_cycle(1, H1), params)
    gw = realized_profile(profile_w, 12, 12)
    gx = realized_profile(profile_x, 12, 12)
    dense = Fraction(0)
    for i in range(12):
        for j in range(12):
            for d in range(12):
                dense += (
                    Fraction(str(gw[i, d])) ** 2 * Fraction(str(gx[d, j])) ** 2
                )
    # tau = psi0/(N^2 N0) * sum_{i,j,d} Gw^2 Gx^2
    finite = Fraction(12, 36) * dense / (36 * 36 * 12)
    assert value == finite


def test_limit_guards():
    with pytest.raises(ValueError):
        limit_pw(single_edge(monomial(2)), CONSTANT)  # even label
    with pytest.raises(ValueError):
        limit_pw(TestGraph([("u", 1), ("v", 2)], [], reference=True), CONSTANT)
    disconnected = TestGraph(
        [("u1", 1), ("v1", 2), ("u2", 1), ("v2", 2)],
        [Edge("a", "v1", "u1", H1), Edge("b", "v2", "u2", H1)],
        reference=True,
    )
    with pytest.raises(ValueError):
        limit_pw(disconnected, CONSTANT)


def test_main_identity_on_step_profiles():
    profile_w = StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]])
    profile_x = StepProfile.of([[2, 1], [1, Fraction(1, 2)]])
    params = LimitParams(
        psi=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        m3_w=Fraction(3, 2),
        m3_x=Fraction(3, 2),
        profile_w=profile_w,
        profile_x=profile_x,
    )
    for g in (single_edge(H3), moment_cycle(1, H3), moment_cycle(1, G5), moment_cycle(2, H3)):
        assert limit_pw(g, params) == limit_equivalent_sum(g, params)
    # components recombine: pw = lin + per + B contributions only on their classes
    m1 = moment_cycle(1, H3)
    assert limit_pw(m1, params) == limit_lin(m1, params) + limit_per(m1, params)


def test_recombination_on_every_reference_graph_up_to_four_edges():
    # pw = the equivalent sum, one channel per strong component, on all
    # connected reference graphs with <= 4 edges labelled h1 or g3
    params = LimitParams(
        psi=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        m3_w=Fraction(3, 2),
        m3_x=Fraction(3, 2),
        profile_w=StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]),
        profile_x=StepProfile.of([[2, 1], [1, Fraction(1, 2)]]),
    )
    labels = {"h1": H1, "g3": G3}
    four_edge = 0
    for name, ref in labeled_reference_graphs(4, list(labels)):
        g = TestGraph(ref.vertices, [Edge(e.id, e.src, e.dst, labels[e.label]) for e in ref.edges], reference=True)
        assert limit_pw(g, params) == limit_equivalent_sum(g, params), name
        four_edge += len(g.edges) == 4
    assert four_edge == 148


def test_limit_walk_matches_oracle_fold():
    # all five values of the walk equal the monomial/niche-graph fold of
    # tests/limit_oracle.py on every connected reference graph of <= 3 edges
    labels = {"h1": H1, "g3+h1": G3_H1, "g5+h3": G5_H3}
    checked = 0
    for name, ref in labeled_reference_graphs(3, list(labels)):
        g = TestGraph(ref.vertices, [Edge(e.id, e.src, e.dst, labels[e.label]) for e in ref.edges], reference=True)
        values = limit_values(g, STEPPED)
        for rule in RULES:
            assert getattr(values, rule) == oracle_limit(g, STEPPED, rule), (name, rule)
        checked += 1
    assert checked == 114


def test_limit_walk_matches_oracle_fold_on_moment_3():
    g = moment_cycle(3, H3)
    values = limit_values(g, STEPPED)
    for rule in RULES:
        assert getattr(values, rule) == oracle_limit(g, STEPPED, rule), rule


def test_recombination_on_moments_3_and_4():
    for k in (3, 4):
        g = moment_cycle(k, G5_H3)
        assert limit_pw(g, STEPPED) == limit_equivalent_sum(g, STEPPED), k


def test_recombination_on_moment_6():
    values = limit_values(moment_cycle(6, G5_H3), STEPPED)
    assert values.pw == values.sum != 0


def assert_walk_matches_loop(g, params, name=""):
    """All five values equal; the breakdown equal as a map from partition to value, in split_partitions order."""
    values, loop = limit_values(g, params), limit_values_loop(g, params)
    for rule in RULES:
        assert getattr(values, rule) == getattr(loop, rule), (name, rule)
    assert {t.partition: t.value for t in values.breakdown} == {t.partition: t.value for t in loop.breakdown}, name
    rank = {pi: i for i, pi in enumerate(split_partitions(g))}
    order = [rank[t.partition] for t in values.breakdown]
    assert order == sorted(order), name
    return values


def test_limit_walk_matches_the_per_partition_loop():
    # the pruned walk with one elimination per class against the loop it
    # replaced (tests/limit_oracle.py), on the graphs and parameters that the
    # limit tests use
    for labels, max_edges in (({"h1": H1, "g3+h1": G3_H1, "g5+h3": G5_H3}, 3), ({"h1": H1, "g3": G3}, 4)):
        for name, ref in labeled_reference_graphs(max_edges, list(labels)):
            edges = [Edge(e.id, e.src, e.dst, labels[e.label]) for e in ref.edges]
            assert_walk_matches_loop(TestGraph(ref.vertices, edges, reference=True), STEPPED, name)
    for params in (CONSTANT, SKEWED, STEPPED):
        for g in (single_edge(H3), single_edge(H5), moment_cycle(1, G3_H1), moment_cycle(2, H3)):
            assert_walk_matches_loop(g, params)
    for k in (3, 4):
        assert_walk_matches_loop(moment_cycle(k, G5_H3), STEPPED, k)


def test_limit_walk_matches_the_per_partition_loop_on_moment_5():
    values = assert_walk_matches_loop(moment_cycle(5, G5_H3), STEPPED)
    assert values.pw == values.sum != 0  # the recombination on moment-5


def test_walk_leaves_are_the_pseudo_cactus_quotients_that_classify_finds():
    # the edge join's two users: on every split partition of moment-1..4 and
    # of the reference graphs of <= 3 edges, the partition is a walk leaf
    # exactly when classify calls its quotient a pseudo-cactus (in
    # split_partitions order), and each leaf's cut edges and cycles, as edge
    # index sets, are classify's
    from pwtraffic.limits import _pseudo_cacti, _read_reference

    graphs = [moment_cycle(k, 1) for k in range(1, 5)] + [g for _, g in labeled_reference_graphs(3, [1])]
    n_leaves = n_refused = 0
    for g in graphs:
        index = {e.id: k for k, e in enumerate(g.edges)}
        positions = [[i + 1 for i, (_, c) in enumerate(g.vertices) if c == color] for color in (1, 2)]
        expected = []
        for pi in split_partitions(g):
            report = classify(quotient(g, pi))
            if not report.is_pseudo_cactus:
                n_refused += 1
                continue
            cycles = Counter(frozenset(index[i] for i in c) for c in all_cycles(report))
            expected.append((pi, sorted(index[i] for i in report.cut_edges), cycles))
        got = [
            (
                SetPartition.from_labels(len(g.vertices), zip(positions, leaf[:2])),
                sorted(leaf[5]),
                Counter(frozenset(edges) for _, edges in leaf[6]),
            )
            for leaf in _pseudo_cacti(_read_reference(g))
        ]
        assert got == expected, g.edges
        n_leaves += len(got)
    assert n_leaves > 0 and n_refused > 0


def test_pseudo_cactus_test_agrees_with_the_limit_walk():
    # the scan's per-pair test against the limit walk's listing, on every
    # (targets, sources) pair of restricted-growth strings of the reference
    # graphs of <= 5 edges
    from pwtraffic.limits import _is_pseudo_cactus, _pseudo_cacti, _read_reference
    from pwtraffic.partitions import restricted_growth_strings

    n_pairs = n_refused = 0
    for _, g in labeled_reference_graphs(5, [1]):
        reference = _read_reference(g)
        listed = {leaf[:2] for leaf in _pseudo_cacti(reference)}
        for targets in restricted_growth_strings(len(reference[0])):
            for sources in restricted_growth_strings(len(reference[1])):
                ok = _is_pseudo_cactus(reference, targets, sources)
                assert ok == ((targets, sources) in listed), (g.edges, targets, sources)
                n_pairs += 1
                n_refused += not ok
    assert (n_pairs, n_refused) == (661, 381)


def test_scan_tests_only_the_pairs_it_reached(monkeypatch):
    # the scan lists no pseudo-cactus quotient: it tests each reference pair
    # with an exponent-zero leaf once, 22 pairs over the 19 eta_scan graphs
    from pwtraffic import limits

    listings, tested = [], []
    pseudo_cacti, is_pseudo_cactus = limits._pseudo_cacti, limits._is_pseudo_cactus
    monkeypatch.setattr(limits, "_pseudo_cacti", lambda reference: listings.append(reference) or pseudo_cacti(reference))
    monkeypatch.setattr(
        limits, "_is_pseudo_cactus", lambda ref, t, s: tested.append((t, s)) or is_pseudo_cactus(ref, t, s)
    )
    graphs = [
        g
        for _, g in labeled_reference_graphs(2, [1, 3, 5])
        if not (len(g.vertices) == 3 and all(e.label == 5 for e in g.edges))
    ]
    n_tested = 0
    for g in graphs:
        del tested[:]
        rep = eta_support_scan(g)
        reached = limits._scan_splits(limits._read_reference(g), [e.label for e in g.edges], limits._eta_offset(g))[2]
        assert tested == list(reached) and rep.pseudo_cactus_ok
        n_tested += len(tested)
    assert (len(graphs), listings, n_tested) == (19, [], 22)


def test_limit_values_reads_its_reference_graph_once(monkeypatch):
    import pwtraffic.limits as limits

    reads = []
    read = limits._read_reference
    monkeypatch.setattr(limits, "_read_reference", lambda g: reads.append(g) or read(g))
    for g in (moment_cycle(1, H1), moment_cycle(4, G5_H3), single_edge(H3)):
        want = limit_values_loop(g, STEPPED)
        reads.clear()
        assert limit_values(g, STEPPED) == want
        assert reads == [g], g.edges


def test_eta_support_scan_reads_its_reference_graph_once(monkeypatch):
    # the partition guard, the walk and the pseudo-cactus test share one read
    import pwtraffic.limits as limits
    import scan_oracle

    reads = []
    read = limits._read_reference
    monkeypatch.setattr(limits, "_read_reference", lambda g: reads.append(g) or read(g))
    lone = TestGraph([("u", 2)], [], reference=True)
    for g in (single_edge(3), moment_cycle(1, 1), moment_cycle(2, 1), lone):
        want = scan_oracle.eta_support_scan(g)
        reads.clear()
        assert eta_support_scan(g) == want
        assert reads == [g], g.edges


def test_every_class_memo_hit_equals_its_quotient_from_scratch():
    # limit_values eliminates one quotient per isomorphism class and reuses
    # its values for the rest of the class: recompute every reuse
    from pwtraffic.limits import _class_key, _limit_kernels, _pseudo_cacti, _quotient_values, _read_reference

    kernels = _limit_kernels(STEPPED)
    for k, n_leaves in ((4, 55), (5, 273)):
        g = moment_cycle(k, G5_H3)
        label_id = [0] * len(g.edges)  # one label
        intern, first, hits = {}, {}, 0
        for leaf in _pseudo_cacti(_read_reference(g)):
            key = _class_key(leaf, label_id, intern)
            values = _quotient_values([e.label for e in g.edges], leaf, kernels, STEPPED)
            if key in first:
                assert values == first[key], (k, leaf[:2])
                hits += 1
            else:
                first[key] = values
        assert hits + len(first) == n_leaves and hits > len(first), k


@pytest.mark.parametrize(
    "psi",
    [
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        (THIRD, Fraction(1, 2), Fraction(1, 6)),
        (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)),
    ],
    ids=["1/2,1/4,1/4", "1/3,1/2,1/6", "1/5,1/5,3/5"],
)
def test_constant_profile_limits_match_pennington_worah(psi):
    # with constant profiles the moment-k limits are psi1 (psi0 psi2)^k times
    # the k-th moment of Pennington and Worah's fixed point
    # (tests/pw_oracle.py): pw at (eta, zeta), lin at (zeta, zeta) and per at
    # (eta - zeta, 0), with eta = E[h^2] and zeta = E[h']^2; B = 0 whatever m3
    for name, h in {"h1": H1, "h3": H3, "g3": G3, "g5+h3": G5_H3}.items():
        eta, zeta = expect_scaled(h * h, 1), expect_scaled(h.derivative(1), 1) ** 2
        top = 6 if name == "g5+h3" and psi == (THIRD, Fraction(1, 2), Fraction(1, 6)) else 4
        closed = {
            rule: pw_moments(e, z, psi[0] / psi[2], psi[0] / psi[1], top)
            for rule, (e, z) in {"pw": (eta, zeta), "lin": (zeta, zeta), "per": (eta - zeta, 0)}.items()
        }
        for m3 in ((0, 0), (Fraction(3, 2), Fraction(-5, 4))):
            params = LimitParams(psi=psi, m3_w=m3[0], m3_x=m3[1])
            for k in range(1, top + 1):
                if k > 4 and m3 == (0, 0):
                    continue
                values = limit_values(moment_cycle(k, h), params)
                norm = psi[1] * (psi[0] * psi[2]) ** k
                for rule, moments in closed.items():
                    assert getattr(values, rule) == norm * moments[k - 1], (name, m3, k, rule)
                assert values.B == 0, (name, m3, k)


def test_recombination_can_fail(monkeypatch):
    # pw reads a 2-cycle through the cell kernel K_2, sum through the stars
    # over its own centre: a wrong K_2 in the shared kernel table must show
    # as pw != sum
    from pwtraffic import profiles

    class DoubledK2(profiles.CellKernels):
        def __init__(self, *args):
            super().__init__(*args)
            self.k2 = {rc: 2 * k for rc, k in self.k2.items()}

    profiles.cell_kernels.cache_clear()
    monkeypatch.setattr(profiles, "CellKernels", DoubledK2)
    try:
        values = limit_values(moment_cycle(1, G3_H1), STEPPED)
        assert values.pw != values.sum
    finally:
        profiles.cell_kernels.cache_clear()


def test_limit_edge_guard():
    assert MAX_LIMIT_EDGES == 12
    thirteen = TestGraph([("u", 1), ("v", 2)], [Edge(k, "v", "u", H1) for k in range(13)], reference=True)
    with pytest.raises(ValueError, match="guarded at 12 edges"):
        limit_values(thirteen, CONSTANT)


def test_component_limits_vanish_off_class():
    assert limit_lin(single_edge(H1), CONSTANT) == 0
    assert limit_per(single_edge(H5), SKEWED) == 0
    assert limit_B(moment_cycle(1, H1), SKEWED) == 0


def test_breakdown_collects_quotients():
    values = limit_values(moment_cycle(2, H1), CONSTANT)
    terms = values.breakdown
    assert sum(t.value for t in terms) == values.pw == limit_pw(moment_cycle(2, H1), CONSTANT)
    assert len(terms) == 3  # discrete 4-cycle plus the two 2-cycle quotients


# -- counting rules cross-validated against exhaustive enumeration ------------------


def test_scan_counts_match_cut_edge_rule():
    # eta-zero quotients of a single edge: binom(n,3)(n-4)!! = E[h_n''']/6
    def double_factorial(k):
        out = 1
        while k > 1:
            out *= k
            k -= 2
        return out

    for n in (3, 5):
        rep = eta_support_scan(single_edge(n))
        closed = math.comb(n, 3) * double_factorial(n - 4)
        assert len(rep.eta_zero_partitions) == closed
        assert closed == expect_scaled(monomial(n).derivative(3), 1) / 6


def test_scan_counts_match_pairing_rule():
    from hermite_oracle import expect_product

    for n, m in ((1, 1), (1, 3), (3, 3)):
        g = TestGraph(
            [("u", 1), ("v", 2)],
            [Edge("p", "v", "u", n), Edge("q", "v", "u", m)],
            reference=True,
        )
        rep = eta_support_scan(g)
        assert rep.max_eta == 0
        assert len(rep.eta_zero_partitions) == int(expect_product(monomial(n), monomial(m)))
        assert rep.pseudo_cactus_ok


def test_scan_shared_target_shape():
    # two unit edges into one target force the source merge: exactly one zero
    g = TestGraph(
        [("t", 1), ("j1", 2), ("j2", 2)],
        [Edge("e1", "j1", "t", 1), Edge("e2", "j2", "t", 1)],
        reference=True,
    )
    rep = eta_support_scan(g)
    assert rep.max_eta == 0 and len(rep.eta_zero_partitions) == 1
    assert rep.pseudo_cactus_ok


def test_scan_examples():
    rep3 = eta_support_scan(single_edge(3))
    assert rep3.max_eta == 0 and rep3.pseudo_cactus_ok
    rep1 = eta_support_scan(single_edge(1))
    assert rep1.n_supported == 0 and rep1.max_eta is None
    rep11 = eta_support_scan(moment_cycle(1, 1))
    assert rep11.max_eta == 0 and len(rep11.eta_zero_partitions) == 1


def test_scan_guards():
    with pytest.raises(ValueError):
        eta_support_scan(single_edge(2))
    with pytest.raises(ValueError):
        eta_support_scan(single_edge(7), max_label=7)
    big = TestGraph(
        [("u", 1), ("v", 2)],
        [Edge(k, "v", "u", 5) for k in range(3)],
        reference=True,
    )
    assert eta_support_scan(big).max_eta == -1  # Bell(15) internal partitions, past the old Bell-product guard
    with pytest.raises(ValueError, match=f"scan would walk more than {MAX_SCAN_STATES} states"):
        eta_support_scan(moment_cycle(3, 5))


def test_scan_refuses_a_boolean_label():
    # True is an int to isinstance, but not a niche size
    g = TestGraph([("t", 1), ("s", 2)], [Edge("e", "s", "t", True)])
    with pytest.raises(ValueError, match="edge 'e' needs an integer label in 1..5"):
        eta_support_scan(g)


def test_scan_rejects_color_0_reference_vertex():
    g = TestGraph([("u", 1), ("v", 2), ("z", 0)], [Edge("e", "v", "u", 3)], reference=True)
    with pytest.raises(ValueError, match="color 1 or 2"):
        eta_support_scan(g)


@pytest.mark.parametrize(
    "case, message",
    [
        ("wrong_way", "reference edges run from color 2 to color 1"),
        ("isolated_color_0", "reference vertices must have color 1 or 2"),
        ("disconnected", "reference graphs must be connected"),
        ("disconnected_wrong_way", "reference graphs must be connected"),
    ],
)
def test_limit_and_scan_refuse_a_bad_reference_graph_alike(case, message):
    # the one reference reader: each structural rule refuses with one message
    # in the limit walk and in the exponent scan, whatever the labels
    def build(label):
        vertices, edges = [("t", 1), ("s", 2)], [Edge("e", "s", "t", label)]
        if case == "wrong_way":
            edges.append(Edge("f", "t", "s", label))
        elif case == "isolated_color_0":
            vertices.append(("z", 0))
        elif case == "disconnected":
            vertices += [("t2", 1), ("s2", 2)]
            edges.append(Edge("f", "s2", "t2", label))
        else:  # the connectivity rule is read before the edge directions
            vertices += [("t2", 1), ("s2", 2)]
            edges.append(Edge("f", "t2", "s2", label))
        return TestGraph(vertices, edges)  # not tagged as a reference graph, so the wrong way can be built

    with pytest.raises(ValueError, match=message):
        limit_values(build(H1), CONSTANT)
    with pytest.raises(ValueError, match=message):
        eta_support_scan(build(3))


def test_tagged_graph_and_limit_refuse_a_backwards_edge_with_one_message():
    # the reference-edge rule is written once: the reference tag and the
    # limit's reader of an untagged graph refuse the same edge alike
    vertices, edges = [("t", 1), ("s", 2)], [Edge("e", "s", "t", H1), Edge("f", "t", "s", H1)]
    with pytest.raises(ValueError) as tagged:
        TestGraph(vertices, edges, reference=True)
    with pytest.raises(ValueError) as untagged:
        limit_values(TestGraph(vertices, edges), CONSTANT)
    assert str(tagged.value) == str(untagged.value) == "reference edges run from color 2 to color 1; edge 'f' does not"


def test_limit_and_scan_read_an_untagged_graph_and_differ_on_an_edgeless_one():
    # a correctly directed graph needs no reference tag in either; an
    # edgeless one-vertex graph is refused by the limit and scanned by the
    # scan, as is the empty graph
    for label, run in ((H3, lambda g: limit_values(g, STEPPED)), (3, eta_support_scan)):
        tagged = single_edge(label)
        assert run(TestGraph(tagged.vertices, tagged.edges)) == run(tagged)
    for color in (1, 2):
        lone = TestGraph([("u", color)], [], reference=True)
        with pytest.raises(ValueError, match="at least one edge"):
            limit_values(lone, CONSTANT)
        rep = eta_support_scan(lone)
        assert (rep.n_partitions, rep.n_supported, rep.max_eta, rep.pseudo_cactus_ok) == (1, 1, 0, True)
        assert rep.eta_zero_partitions == [SetPartition(1, ((1,),))] and rep.violations == []
    rep = eta_support_scan(TestGraph([], []))
    assert (rep.n_partitions, rep.n_supported, rep.max_eta, rep.pseudo_cactus_ok) == (1, 1, -1, True)
    assert rep.eta_zero_partitions == [] and rep.violations == []


def test_internal_block_count_identity():
    # number of inner blocks of a contributing quotient equals
    # c2 + c3 + sum_e (n(e)-1)/2; checked on the assembled niche expansions
    from limit_oracle import _niche_expansion, _options

    for g, ns in (
        (moment_cycle(1, H3), {("e", 0, 0): 3, ("e", 0, 1): 3}),
        (moment_cycle(2, H1), {("e", 0, 0): 1, ("e", 0, 1): 1, ("e", 1, 0): 1, ("e", 1, 1): 1}),
        (single_edge(H5), {"e": 5}),
    ):
        for rho0 in split_partitions(g):
            tq = quotient(g, rho0)
            report = classify(tq)
            if not report.is_pseudo_cactus:
                continue
            components = [("cut", (eid,)) for eid in report.cut_edges]
            components += [("cycle", c) for c in all_cycles(report)]
            plan = []
            ok = True
            for kind, eids in components:
                options = _options("pw", kind, eids, ns, SKEWED)
                if not options:
                    ok = False
                    break
                ((_, style),) = options
                plan.append((style, eids, ns))
            if not ok:
                continue
            expansion = _niche_expansion(tq, plan)
            inner = sum(1 for _, c in expansion.vertices if c == 0)
            c2 = len(report.two_cycles)
            c3 = len(report.long_cycles)
            want = c2 + c3 + sum((n - 1) // 2 for n in ns.values())
            assert inner == want


# -- Monte Carlo consistency ----------------------------------------------------------


def test_three_edge_limit_against_derived_expectation():
    # double edge plus a pendant edge sharing the target, labels (1, 1, 3):
    # the only contributing quotient gives psi0 psi1 psi2^2 m3w m3x
    g = TestGraph(
        [("u", 1), ("j1", 2), ("j2", 2)],
        [
            Edge("d1", "j1", "u", H1),
            Edge("d2", "j1", "u", H1),
            Edge("cut", "j2", "u", H3),
        ],
        reference=True,
    )
    value = limit_pw(g, SKEWED)
    psi = Fraction(1, 3)
    assert value == psi * psi * psi**2 * Fraction(9, 4)
    # Monte Carlo cross-check with a bias allowance
    lay = BlockLayout(150, 150, 150)
    ens = ProfiledEnsemble(
        lay, unit_skewed_law(), unit_skewed_law(), StepProfile.constant(), StepProfile.constant()
    )
    est = tau_estimates([g], model_sampler(ens, distinct_labels([g])), trials=120, seed=31)[0]
    tol = 3 * est.std_error + 0.05 * abs(float(value)) + 20 / lay.N
    assert abs(est.mean - float(value)) <= tol


def test_finite_size_bias_halves():
    # the model's moment-2 estimate approaches the exact limit like 1/N
    g = moment_cycle(2, H3)
    exact = float(limit_pw(g, CONSTANT))
    biases = []
    for blocks in (150, 300):
        lay = BlockLayout(blocks, blocks, blocks)
        ens = ProfiledEnsemble(
            lay, EntryLaw.gaussian(), EntryLaw.gaussian(), StepProfile.constant(), StepProfile.constant()
        )
        est = tau_estimates([g], model_sampler(ens, distinct_labels([g])), trials=40, seed=11)[0]
        biases.append(est.mean - exact)
    ratio = biases[0] / biases[1]
    assert 1.5 <= ratio <= 2.8


# -- brute-force limit oracle -------------------------------------------------------
#
# Independent re-derivation of the full limit: enumerate every split partition
# of the auxiliary graph, keep those with nonzero centered weight and zero
# size exponent, and sum moment-weighted profile factors.  No cycle
# classification, no counting rules, no niche assembly.


def brute_limit(ref_int, params, law_w, law_x):
    from graphs_oracle import build_auxiliary
    from pwtraffic.graphs import edge_groups, eta
    from pwtraffic.graphs import quotient as gquotient
    from pwtraffic.graphs import split_partitions as sp

    aux = build_auxiliary(ref_int)
    g = aux.graph
    sum_half = sum((e.label - 1) // 2 for e in ref_int.edges)
    psi0, psi1, psi2 = params.psi
    total = Fraction(0)
    for pi in sp(g):
        groups = edge_groups(g, pi)
        weight = Fraction(1)
        for (label, _, _), eids in groups.items():
            mult = len(eids)
            law = law_w if label == "w" else law_x
            weight *= law.moment(mult)
            if weight == 0:
                break
        if weight == 0:
            continue
        if eta(aux, pi).eta != 0:
            continue
        counts = [0, 0, 0]
        idx = pi.block_index()
        pos = g.vertex_position()
        blocks_by_color = {0: set(), 1: set(), 2: set()}
        for v, c in g.vertices:
            blocks_by_color[c].add(idx[pos[v]])
        v0, v1, v2 = (len(blocks_by_color[c]) for c in (0, 1, 2))
        psi_factor = psi0 ** (v0 - sum_half) * psi1**v1 * psi2**v2
        profile = delta0_graphon(gquotient(g, pi), params)
        total += psi_factor * weight * profile
    return total


def poly_graph(ref_int):
    return TestGraph(
        ref_int.vertices,
        [Edge(e.id, e.src, e.dst, monomial(e.label)) for e in ref_int.edges],
        reference=True,
    )


def test_limit_pw_matches_brute_partition_sum_constant():
    law = unit_skewed_law()
    params = SKEWED
    cases = [
        single_edge(3),
        single_edge(5),
        moment_cycle(1, 1),
        moment_cycle(1, 3),
        TestGraph(
            [("u", 1), ("v", 2)],
            [Edge("p", "v", "u", 1), Edge("q", "v", "u", 3)],
            reference=True,
        ),
        TestGraph(
            [("t", 1), ("j1", 2), ("j2", 2)],
            [Edge("e1", "j1", "t", 1), Edge("e2", "j2", "t", 3)],
            reference=True,
        ),
        moment_cycle(2, 1),
    ]
    for ref in cases:
        assert limit_pw(poly_graph(ref), params) == brute_limit(ref, params, law, law)


def test_limit_pw_matches_brute_partition_sum_mixed_cycle():
    law = unit_skewed_law()
    ref = TestGraph(
        [(("u", 0), 1), (("u", 1), 1), (("v", 0), 2), (("v", 1), 2)],
        [
            Edge(0, ("v", 0), ("u", 0), 3),
            Edge(1, ("v", 0), ("u", 1), 1),
            Edge(2, ("v", 1), ("u", 1), 1),
            Edge(3, ("v", 1), ("u", 0), 1),
        ],
        reference=True,
    )
    assert limit_pw(poly_graph(ref), SKEWED) == brute_limit(ref, SKEWED, law, law)


def test_limit_pw_matches_brute_partition_sum_step_profiles():
    law = unit_skewed_law()
    params = LimitParams(
        psi=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        m3_w=Fraction(3, 2),
        m3_x=Fraction(3, 2),
        profile_w=StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]),
        profile_x=StepProfile.of([[2, 1], [1, Fraction(1, 2)]]),
    )
    for ref in (single_edge(3), moment_cycle(1, 3), moment_cycle(2, 1)):
        assert limit_pw(poly_graph(ref), params) == brute_limit(ref, params, law, law)


# -- closed-form identities ----------------------------------------------------------


def _joint_cells(kw, kx):
    """Exact overlap measures of two uniform cell grids on [0, 1]."""
    breaks = sorted({Fraction(i, kw) for i in range(kw + 1)} | {Fraction(j, kx) for j in range(kx + 1)})
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = (lo + hi) / 2
        yield hi - lo, min(int(mid * kw), kw - 1), min(int(mid * kx), kx - 1)


def _limit_cells(params):
    """(measure, lambda2, lambda3) per outer (w-row, x-col) cell pair."""
    pw_, px_ = params.profile_w, params.profile_x
    inner = list(_joint_cells(pw_.n_col_cells, px_.n_row_cells))
    for rw in range(pw_.n_row_cells):
        for cx in range(px_.n_col_cells):
            lam2 = sum(m * pw_.grid[rw][cw] ** 2 * px_.grid[rx][cx] ** 2 for m, cw, rx in inner)
            lam3 = sum(m * pw_.grid[rw][cw] ** 3 * px_.grid[rx][cx] ** 3 for m, cw, rx in inner)
            measure = Fraction(1, pw_.n_row_cells * px_.n_col_cells)
            yield measure, lam2, lam3


def test_two_cycle_closed_form():
    # limit of the doubled edge (p, q) is psi0 psi1 psi2 <E[p(mu xi) q(mu xi)]>
    from pwtraffic.hermite import expect_scaled

    params = LimitParams(
        psi=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        m3_w=Fraction(3, 2),
        m3_x=Fraction(3, 2),
        profile_w=StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]),
        profile_x=StepProfile.of([[2, 1], [1, Fraction(1, 2)]]),
    )
    for p, q in ((H1, H1), (H3, H3), (H3, H5), (G3, G5), (H1, G3)):
        g = TestGraph(
            [("u", 1), ("v", 2)],
            [Edge("a", "v", "u", p), Edge("b", "v", "u", q)],
            reference=True,
        )
        psi0, psi1, psi2 = params.psi
        closed = psi0 * psi1 * psi2 * sum(
            measure * expect_scaled(p * q, lam2) for measure, lam2, _ in _limit_cells(params)
        )
        assert limit_pw(g, params) == closed


def test_single_edge_closed_form():
    # limit of one edge labeled p is psi1 psi2 (m3 m3 / 6) <lambda3 E[p'''(mu xi)]>
    from pwtraffic.hermite import expect_scaled

    params = LimitParams(
        psi=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        m3_w=Fraction(3, 2),
        m3_x=Fraction(3, 2),
        profile_w=StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]),
        profile_x=StepProfile.of([[2, 1], [1, Fraction(1, 2)]]),
    )
    psi0, psi1, psi2 = params.psi
    for p in (H3, H5, G3, G5, Polynomial([0, 0, 0, 2, 0, Fraction(-1, 3)])):  # the last is 2 h3 - h5/3
        closed = psi1 * psi2 * (params.m3_w * params.m3_x / 6) * sum(
            measure * lam3 * expect_scaled(p.derivative(3), lam2)
            for measure, lam2, lam3 in _limit_cells(params)
        )
        assert limit_pw(single_edge(p), params) == closed


def test_eta_nonpositive_on_every_three_edge_graph():
    # labels {1, 3, 5}: the scan admits all 93 three-edge graphs (16 of them
    # past the old Bell-product guard), and none has a positive exponent or
    # an exponent-zero quotient that is not a pseudo-cactus
    refused, checked = 0, 0
    for name, g in labeled_reference_graphs(3, [1, 3, 5]):
        if len(g.edges) != 3:
            continue
        try:
            rep = eta_support_scan(g, max_label=5)
        except ValueError as exc:
            assert str(exc).startswith("scan would walk"), name
            refused += 1
            continue
        checked += 1
        assert rep.max_eta is not None and rep.max_eta <= 0, name
        assert rep.pseudo_cactus_ok and not rep.violations, name
    assert (refused, checked) == (0, 93)


def test_leaf_partitions_are_built_canonical():
    # on every exponent-zero leaf and reference key of the 19 eta_scan graphs
    # (<= 2 edges, the two (5, 5) graphs on three vertices left out), the
    # canonical build equals SetPartition.from_blocks on the same blocks
    from graphs_oracle import build_auxiliary
    from pwtraffic.limits import _eta_offset, _read_reference, _scan_splits, _zero_labels
    from pwtraffic.partitions import SetPartition

    def grouped(ground_size, classes):
        blocks: dict = {}
        for k, (positions, labels) in enumerate(classes):
            for p, lab in zip(positions, labels):
                blocks.setdefault((k, lab), []).append(p)
        return SetPartition.from_blocks(ground_size, blocks.values())

    graphs = [
        g
        for _, g in labeled_reference_graphs(2, [1, 3, 5])
        if not (len(g.vertices) == 3 and all(e.label == 5 for e in g.edges))
    ]
    assert len(graphs) == 19
    n_leaves = 0
    for g in graphs:
        aux = build_auxiliary(g)
        positions = [[i + 1 for i, (_, cv) in enumerate(aux.graph.vertices) if cv == c] for c in (0, 1, 2)]
        for labels in sorted(_zero_labels(_scan_splits(_read_reference(g), [e.label for e in g.edges], _eta_offset(g))[2])):
            leaf = list(zip(positions, labels))
            key = leaf[1:]  # the reference labels, on positions 1..len(g.vertices)
            assert SetPartition.from_labels(len(aux.graph.vertices), leaf) == grouped(len(aux.graph.vertices), leaf)
            assert SetPartition.from_labels(len(g.vertices), key) == grouped(len(g.vertices), key)
            n_leaves += 1
    assert n_leaves == 1395
    with pytest.raises(ValueError, match="partition"):
        SetPartition.from_labels(4, [([1, 2], (0, 1)), ([3], (0,))])  # 4 is in no block
    with pytest.raises(ValueError, match="partition"):
        SetPartition.from_labels(3, [([1, 2], (0, 0)), ([2, 3], (0, 1))])  # 2 is in two blocks
    with pytest.raises(ValueError, match="partition"):
        SetPartition.from_labels(3, [([1, 2, 3], (0, 1))])  # a position without a label


def test_scan_matches_oracle(monkeypatch):
    # the pruned walk against enumerate-then-filter: every report field, the
    # zero-exponent and violation lists as ordered lists; and on every
    # partition the oracle finds supported, the block-count exponent the
    # walk uses against graphs.eta
    import scan_oracle
    from pwtraffic.limits import _eta_offset

    supported = []
    eta = scan_oracle.eta

    def checked_eta(aux, pi):
        out = eta(aux, pi)
        assert pi.num_blocks - _eta_offset(aux.reference) == out.eta
        supported.append(pi)
        return out

    monkeypatch.setattr(scan_oracle, "eta", checked_eta)
    graphs = [g for _, g in labeled_reference_graphs(2, [1, 3, 5])]
    graphs += [
        g
        for _, g in labeled_reference_graphs(3, [1, 3])
        if len(g.edges) == 3 and sum(e.label for e in g.edges) <= 7
    ]
    checked = 0
    for g in graphs:
        rep = eta_support_scan(g)
        if rep.n_partitions > 8280:
            continue
        checked += 1
        del supported[:]
        assert rep == scan_oracle.eta_support_scan(g)  # dataclass equality: every field, lists in order
        assert len(supported) == rep.n_supported
    assert checked == 18 + 26


def test_scan_oracle_takes_untagged_graphs():
    # the library scans any connected graph with edges from colour 2 to 1,
    # with or without the reference tag; so does the oracle, and both still
    # refuse an edge that runs the other way
    import scan_oracle

    one = single_edge(3)
    two = TestGraph([("t", 1), ("s", 2), ("u", 1)], [Edge("a", "s", "t", 1), Edge("b", "s", "u", 3)])
    for g in (TestGraph(one.vertices, one.edges), two):
        rep = eta_support_scan(g)
        assert rep == scan_oracle.eta_support_scan(g) and rep.n_partitions > 1
    assert eta_support_scan(TestGraph(one.vertices, one.edges)).n_partitions == 5
    backwards = TestGraph([("t", 1), ("s", 2)], [Edge("a", "t", "s", 1)])
    for scan in (eta_support_scan, scan_oracle.eta_support_scan):
        with pytest.raises(ValueError, match="from color 2 to color 1"):
            scan(backwards)


def test_flat_walk_matches_generator_oracle():
    # the flat walk against the generator walk it replaced: the supported
    # count, the largest block count and the exponent-zero labels, on every
    # graph of <= 2 edges (the two 231,950-partition (5, 5) graphs included)
    # and the 21 three-edge graphs of label sum 9
    from graphs_oracle import build_auxiliary
    from pwtraffic.limits import _eta_offset, _read_reference, _scan_splits, _zero_labels
    from scan_oracle import supported_splits

    graphs = [g for _, g in labeled_reference_graphs(2, [1, 3, 5])]
    graphs += [
        g
        for _, g in labeled_reference_graphs(3, [1, 3, 5])
        if len(g.edges) == 3 and sum(e.label for e in g.edges) == 9
    ]
    assert len(graphs) == 21 + 21
    for g in graphs:
        aux = build_auxiliary(g)
        offset = _eta_offset(g)
        n_supported, max_blocks, zeros = 0, -1, []
        for labels in supported_splits(aux):
            n_supported += 1
            n_blocks = sum(max(rgs, default=-1) + 1 for rgs in labels)
            max_blocks = max(max_blocks, n_blocks)
            if n_blocks == offset:
                zeros.append(labels)
        got_supported, got_max, roots = _scan_splits(_read_reference(g), [e.label for e in g.edges], offset)
        assert (got_supported, got_max, sorted(_zero_labels(roots))) == (n_supported, max_blocks, sorted(zeros))


def test_leaf_templates_match_labels_to_partition(monkeypatch):
    # every eta_zero_partitions and violations entry against
    # SetPartition.from_labels on the walk's sorted labels, in the same
    # order; on the 19 eta_scan graphs and the
    # 77 three-edge graphs within the old Bell-product guard.  No quotient here fails the
    # pseudo-cactus test, so a stand-in test passes only the quotients
    # with an odd vertex count, which puts about half of the leaves on the
    # violation list
    from pwtraffic import limits
    from graphs_oracle import build_auxiliary
    from pwtraffic.limits import _eta_offset, _read_reference, _scan_splits, _zero_labels
    from pwtraffic.partitions import SetPartition
    from scan_oracle import within_bell_guard

    is_pseudo_cactus = limits._is_pseudo_cactus
    monkeypatch.setattr(
        limits, "_is_pseudo_cactus", lambda ref, t, s: is_pseudo_cactus(ref, t, s) and (max(t) + max(s) + 2) % 2 == 1
    )
    graphs = [
        g
        for _, g in labeled_reference_graphs(2, [1, 3, 5])
        if not (len(g.vertices) == 3 and all(e.label == 5 for e in g.edges))
    ]
    graphs += [g for _, g in labeled_reference_graphs(3, [1, 3, 5]) if len(g.edges) == 3]
    checked, n_leaves, n_violations = 0, 0, 0
    for g in filter(within_bell_guard, graphs):
        rep = eta_support_scan(g)
        checked += 1
        aux = build_auxiliary(g)
        positions = [[i + 1 for i, (_, cv) in enumerate(aux.graph.vertices) if cv == c] for c in (0, 1, 2)]
        leaves = sorted(_zero_labels(_scan_splits(_read_reference(g), [e.label for e in g.edges], _eta_offset(g))[2]))
        expected = [SetPartition.from_labels(len(aux.graph.vertices), zip(positions, labels)) for labels in leaves]
        violations = [
            pi
            for labels, pi in zip(leaves, expected)
            if len(SetPartition.from_labels(len(g.vertices), zip(positions[1:], labels[1:])).blocks) % 2 == 0
        ]
        assert rep.eta_zero_partitions == expected
        assert rep.violations == violations and rep.pseudo_cactus_ok == (not violations)
        n_leaves += len(expected)
        n_violations += len(violations)
    assert checked == 19 + 77
    assert 0 < n_violations < n_leaves


def test_scan_builds_each_leaf_only_when_it_is_read(monkeypatch):
    # on the 19 eta_scan graphs the scan returns without building a leaf
    # partition (the benchmark and criterion 5 only count them); a full read
    # builds each leaf once, and the lazy sequence reads, compares and prints
    # as the list it stands for
    import dataclasses

    import scan_oracle
    from pwtraffic.partitions import SetPartition

    built = []
    from_labels = SetPartition.from_labels
    monkeypatch.setattr(SetPartition, "from_labels", staticmethod(lambda size, classes: built.append(size) or from_labels(size, classes)))
    graphs = [
        g
        for _, g in labeled_reference_graphs(2, [1, 3, 5])
        if not (len(g.vertices) == 3 and all(e.label == 5 for e in g.edges))
    ]
    n_leaves, n_oracle = 0, 0
    for g in graphs:
        del built[:]
        rep = eta_support_scan(g)
        leaves = rep.eta_zero_partitions
        assert len(rep.violations) == 0 and built == []
        n_leaves += len(leaves)
        eager = list(leaves)
        assert len(built) == len(eager) == len(leaves)
        assert [leaves[i] for i in range(-len(eager), 0)] == eager and leaves[1:3] == eager[1:3]
        for i in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                leaves[i]
        assert leaves == tuple(eager) and leaves != eager + [None] and leaves != 0 and leaves != None  # noqa: E711
        if len(eager) > 1:
            assert leaves != eager[::-1]
        plain = dataclasses.replace(rep, eta_zero_partitions=eager)
        assert rep == plain and plain == rep and repr(rep) == repr(plain)
        if rep.n_partitions <= 8280:
            n_oracle += 1
            want = scan_oracle.eta_support_scan(g)
            assert rep == want and want == rep
    assert (len(graphs), n_leaves, n_oracle) == (19, 1395, 18)


def record_descents(monkeypatch) -> list:
    """Patch ``limits._zero_labels`` to record each call that has walk roots to descend."""
    from pwtraffic import limits

    descents = []
    descend = limits._zero_labels

    def recorded(roots):
        if roots:
            descents.append(roots)
        return descend(roots)

    monkeypatch.setattr(limits, "_zero_labels", recorded)
    return descents


def test_scan_descends_only_when_its_leaves_are_read(monkeypatch):
    # the walk roots count the exponent-zero leaves of each reference pair;
    # no pair of the 19 eta_scan graphs fails the pseudo-cactus test, so the
    # scan descends to no leaf, and its leaves are listed by one descent the
    # first time they are read and by none after that
    descents = record_descents(monkeypatch)
    graphs = [
        g
        for _, g in labeled_reference_graphs(2, [1, 3, 5])
        if not (len(g.vertices) == 3 and all(e.label == 5 for e in g.edges))
    ]
    n_leaves = 0
    for g in graphs:
        del descents[:]
        rep = eta_support_scan(g)
        n_leaves += len(rep.eta_zero_partitions)
        assert descents == [] and rep.violations == [] and rep.pseudo_cactus_ok
        eager = list(rep.eta_zero_partitions)
        assert len(descents) == (1 if eager else 0) and len(eager) == len(rep.eta_zero_partitions)
        assert list(rep.eta_zero_partitions) == eager and rep.eta_zero_partitions[-1:] == eager[-1:]
        assert len(descents) == (1 if eager else 0)
    assert (len(graphs), n_leaves) == (19, 1395)


def test_scan_with_no_listed_quotient_reports_every_leaf_as_a_violation(monkeypatch):
    # a stand-in pseudo-cactus test that passes no quotient fails every
    # reference pair with an exponent-zero leaf, so the descent of the failing
    # pairs must give exactly the oracle's exponent-zero partitions, in order,
    # and the leaves are then read by a second descent
    import scan_oracle
    from pwtraffic import limits

    descents = record_descents(monkeypatch)
    monkeypatch.setattr(limits, "_is_pseudo_cactus", lambda reference, targets, sources: False)
    checked, n_violations = 0, 0
    for _, g in labeled_reference_graphs(2, [1, 3, 5]):
        del descents[:]
        rep = eta_support_scan(g)
        if rep.n_partitions > 8280:
            continue
        checked += 1
        want = scan_oracle.eta_support_scan(g).eta_zero_partitions
        assert rep.violations == want and rep.pseudo_cactus_ok == (not want)
        assert len(descents) == (1 if want else 0)
        assert rep.eta_zero_partitions == want and len(descents) == (2 if want else 0)
        n_violations += len(want)
    assert checked == 18 and n_violations > 0


def test_capped_walk_past_the_guard_keeps_its_counts():
    # moment-2 with label 3 (a Bell count of 16.9 M, past the old Bell-product
    # guard), walked directly: the supported count, the largest block count
    # and the exponent-zero count are those of the uncapped walk, and every
    # exponent-zero leaf restricts to a quotient that the limit walk lists
    from pwtraffic.limits import _eta_offset, _pseudo_cacti, _read_reference, _scan_splits, _zero_labels

    g = moment_cycle(2, 3)
    assert eta_support_scan(g).n_partitions == 16_854_388
    reference = _read_reference(g)
    n_supported, max_blocks, roots = _scan_splits(reference, [e.label for e in g.edges], _eta_offset(g))
    zeros = sorted(_zero_labels(roots))
    n_zero = sum(root[0] for root in roots.values())  # the count that the scan's len() reads
    assert (n_supported, max_blocks, n_zero) == (627_576, 9, 531) and max_blocks == _eta_offset(g)
    labels = list(zeros)
    assert len(labels) == len(set(labels)) == 531 and labels == sorted(labels)
    assert {z[1:] for z in labels} <= {leaf[:2] for leaf in _pseudo_cacti(reference)}


def test_support_claim_past_the_old_guard():
    # moment-2 with labels 3 and 5 and moment-3 with label 3, each past the
    # old Bell-product guard: no positive exponent, only pseudo-cactus
    # exponent-zero quotients, and the counts that the labelled walk
    # computed for each on its own (the leaves are only counted)
    for k, label, n_supported, n_zero in (
        (2, 3, 627_576, 531),
        (2, 5, 5_310_649_676_545, 1_836_675),
        (3, 3, 81_103_024_565, 24_894),
    ):
        rep = eta_support_scan(moment_cycle(k, label))
        assert (rep.max_eta, rep.pseudo_cactus_ok, rep.violations) == (0, True, []), (k, label)
        assert (rep.n_supported, len(rep.eta_zero_partitions)) == (n_supported, n_zero), (k, label)


def test_canonical_walk_matches_labelled_walk():
    # the canonical walk against the labelled-multiplicity walk it replaced,
    # on the 98 graphs of <= 3 edges with labels in {1, 3, 5} within the old
    # Bell-product guard: the supported count, the largest block count, the
    # exponent-zero count per reference pair and the sorted leaf labels
    from pwtraffic.limits import _eta_offset, _read_reference, _scan_splits, _zero_labels
    from scan_oracle import descend, labelled_walk, within_bell_guard

    graphs = [g for _, g in labeled_reference_graphs(3, [1, 3, 5]) if within_bell_guard(g)]
    n_leaves = 0
    for g in graphs:
        args = (_read_reference(g), [e.label for e in g.edges], _eta_offset(g))
        n_supported, max_blocks, roots = _scan_splits(*args)
        want_supported, want_max, want_roots = labelled_walk(*args)
        assert (n_supported, max_blocks) == (want_supported, want_max)
        assert {pair: root[0] for pair, root in roots.items()} == {pair: root[2] for pair, root in want_roots.items()}
        leaves = sorted(_zero_labels(roots))
        assert leaves == sorted(descend(want_roots))
        n_leaves += len(leaves)
    assert (len(graphs), n_leaves) == (98, 7594)


@pytest.mark.parametrize("labels", [(a, b) for a in (1, 3, 5) for b in (1, 3, 5)])
def test_scan_rejects_disconnected_reference_graph(labels):
    # two disjoint edges: refused at entry, before the walk, on every label pair
    g = TestGraph(
        [("t0", 1), ("t1", 1), ("s0", 2), ("s1", 2)],
        [Edge("a", "s0", "t0", labels[0]), Edge("b", "s1", "t1", labels[1])],
        reference=True,
    )
    with pytest.raises(ValueError, match="reference graphs must be connected"):
        eta_support_scan(g)


def test_equivalent_family_matches_limit_mc():
    g = moment_cycle(1, H3)
    exact = float(limit_pw(g, CONSTANT))
    lay = BlockLayout(200, 200, 200)
    ens = ProfiledEnsemble(
        lay, EntryLaw.gaussian(), EntryLaw.gaussian(), StepProfile.constant(), StepProfile.constant()
    )
    est = tau_estimates([g], equivalent_sampler(ens, [H3]), trials=80, seed=23)[0]
    assert abs(est.mean - exact) <= 3 * est.std_error + 0.01 * exact
