"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here.  Monte Carlo criteria run at fixed seeds; "se"
always means the sample standard deviation over trials divided by sqrt(trials)
(the reporting convention of the trace engine).  Runs at one seed share the
trial streams (seed, t), so statistics that combine such runs take their se
from the per-trial combination (``paired_combination``).

Criterion 7 (linear plus chaos) checks, at seed 900 and 200 trials, that the
Gaussian equivalent at N = 900 matches the exact limit (3 se), that the model
extrapolated in size, 2*tau(N0=300) - tau(N0=150), matches the exact limit
(3 se) and the equivalent (4 se), and that the model at N = 900 matches its
exact finite-N moment-1 mean 15*psi0*psi1*psi2*(1 + 6/N0 + 8/N0^2) (3 se).
The raw model is not held to the N -> infinity limit: its bias and the
Monte Carlo se are both O(1/N), so that z-score does not fall with N
(moment-1: +8.9 at N = 450, +9.5 at N = 900); it is printed only.

Criterion 8 (remainder vanishing) checks, at seed 8 and 60 trials, that both
remainder statistics shrink from N = 300 to N = 900, that the single-edge one
is within 3 se of zero at N = 900, and that the moment-1 squared norm decays
with exponent log(tau300/tau900)/log 3 of at least 1, within 3 se (delta
method).  The squared norm is not held within 3 se of zero: its mean is
positive and concentrates, so that z-score is sqrt(trials) over its relative
spread (38 at N = 300, 116 at N = 900) and grows with N; it is printed only.
"""

import itertools
import math
import statistics
import time
from fractions import Fraction

import numpy as np

from refgraphs import labeled_reference_graphs

from pwtraffic.graphs import Edge, TestGraph, moment_cycle, single_edge
from pwtraffic.hermite import hermite, monomial
from pwtraffic.limits import LimitParams, eta_support_scan, limit_pw, limit_values
from pwtraffic.models import (
    EntryLaw,
    ProfiledEnsemble,
    decompose,
    distinct_labels,
    equivalent_sampler,
    model_sampler,
    power_sums,
    z_lambda,
)
from pwtraffic.profiles import StepProfile
from pwtraffic.traffic import BlockLayout, MatrixFamily, tau_estimates
from hermite_oracle import expect_product, to_hermite
from models_oracle import unit_skewed_law
from partitions_oracle import integer_partitions
from traffic_oracle import moebius_check, recording_map


def report(num, name, ok, detail, started):
    elapsed = time.time() - started
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s] {detail}"
    print(line)
    return line


def paired_combination(runs, weights):
    """Mean and standard error of sum_i weights[i] * runs[i][t] over trials t.

    The runs are per-trial values of tau_estimates calls at one seed, so trial t
    of each draws from the stream (seed, t) and the runs are correlated;
    combining them trial by trial gives a standard error that accounts for it.
    With weights (1/mean_a, -1/mean_b) the standard error is the delta-method
    one of log(mean_a / mean_b).
    """
    per_trial = [sum(w * v for w, v in zip(weights, values)) for values in zip(*runs)]
    return statistics.fmean(per_trial), statistics.stdev(per_trial) / math.sqrt(len(per_trial))


def constant_ensemble(block, law=None):
    law = law or EntryLaw.gaussian()
    return ProfiledEnsemble(
        BlockLayout(block, block, block), law, law, StepProfile.constant(), StepProfile.constant()
    )


def test_criterion_1_moebius_identity():
    started = time.time()
    rng = np.random.default_rng(1001)
    failures = 0
    for _ in range(200):
        sizes = [int(rng.integers(1, 4)) for _ in range(3)]
        while sum(sizes) > 5:
            sizes[int(rng.integers(0, 3))] -= 1
        if min(sizes) < 1:
            sizes = [1, 1, 1]
        lay = BlockLayout(*sizes)
        n_v = int(rng.integers(1, 5))
        colors = [int(rng.integers(0, 3)) for _ in range(n_v)]
        n_e = int(rng.integers(1, 6))
        edges, labels = [], {}
        for k in range(n_e):
            s, t = int(rng.integers(0, n_v)), int(rng.integers(0, n_v))
            label = ("L", colors[s], colors[t], k % 3)
            labels[label] = (colors[s], colors[t])
            edges.append(Edge(k, s, t, label))
        g = TestGraph([(i, colors[i]) for i in range(n_v)], edges)
        fam = MatrixFamily(lay)
        for label, (cs, ct) in labels.items():
            fam.add(label, rng.integers(-3, 4, size=(lay.size(ct), lay.size(cs))), cs, ct)
        rep = moebius_check(g, fam)
        if not rep.equal or not isinstance(rep.lhs, int):
            failures += 1
    ok = failures == 0 and time.time() - started < 10
    line = report(1, "exact Moebius identity", ok, f"200 instances, {failures} mismatches", started)
    assert ok, line


def test_criterion_2_hermite_suite():
    started = time.time()
    ok = True
    notes = []
    for n in range(1, 9):
        if hermite(n).derivative(1).power_coeffs != tuple(n * c for c in hermite(n - 1).power_coeffs):
            ok, _ = False, notes.append(f"derivative fails at {n}")
    for n in range(9):
        for m in range(9):
            want = Fraction(math.factorial(n)) if n == m else Fraction(0)
            if expect_product(hermite(n), hermite(m)) != want:
                ok, _ = False, notes.append(f"orthogonality fails at {(n, m)}")
    for degree in range(9):
        coeffs = tuple(Fraction(3 * k - 2, k + 1) for k in range(degree + 1))
        from pwtraffic.hermite import Polynomial, from_hermite

        if from_hermite(to_hermite(coeffs)) != Polynomial(coeffs).power_coeffs:
            ok, _ = False, notes.append(f"round trip fails at degree {degree}")
    if hermite(3).power_coeffs != (0, -3, 0, 1):
        ok, _ = False, notes.append("g3 regression")
    if to_hermite(monomial(3).power_coeffs) != (0, 3, 0, 1):
        ok, _ = False, notes.append("h3 = g3 + 3 g1 regression")
    ok = ok and time.time() - started < 1
    line = report(2, "Hermite suite", ok, "; ".join(notes) or "all identities exact", started)
    assert ok, line


def test_criterion_3_eta_support_scan():
    started = time.time()
    worst = Fraction(-10)
    total_zero = 0
    violations = 0
    n_graphs = 0
    for name, g in labeled_reference_graphs(2, [1, 3, 5]):
        rep = eta_support_scan(g, max_label=5)
        n_graphs += 1
        if rep.max_eta is not None:
            worst = max(worst, rep.max_eta)
        total_zero += len(rep.eta_zero_partitions)
        violations += len(rep.violations)
    ok = worst <= 0 and violations == 0 and time.time() - started < 300
    line = report(
        3,
        "exponent/support scan",
        ok,
        f"{n_graphs} graphs, max eta {worst}, {total_zero} zero-exponent quotients, "
        f"{violations} pseudo-cactus violations",
        started,
    )
    assert ok, line


def test_criterion_4_exact_limit_recombination():
    started = time.time()
    psis = [(Fraction(1, 3),) * 3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))]
    m3s = [Fraction(0), Fraction(3, 2)]
    profile_pairs = [
        (StepProfile.constant(), StepProfile.constant()),
        (
            StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]]),
            StepProfile.of([[2, 1], [1, Fraction(1, 2)]]),
        ),
    ]
    graphs = [
        (name, g) for name, g in labeled_reference_graphs(3, [1, 3, 5])
    ]
    mismatches = []
    n_checks = 0
    for psi, m3, (prof_w, prof_x) in itertools.product(psis, m3s, profile_pairs):
        params = LimitParams(psi=psi, m3_w=m3, m3_x=m3, profile_w=prof_w, profile_x=prof_x)
        for name, shape in graphs:
            g = TestGraph(
                shape.vertices,
                [Edge(e.id, e.src, e.dst, monomial(e.label)) for e in shape.edges],
                reference=True,
            )
            n_checks += 1
            values = limit_values(g, params)  # one walk gives both pw and sum
            if values.pw != values.sum:
                mismatches.append((name, psi, m3))
    ok = not mismatches and time.time() - started < 120
    line = report(
        4,
        "exact limit recombination",
        ok,
        f"{n_checks} (graph, params) pairs, {len(mismatches)} mismatches",
        started,
    )
    assert ok, line


def test_criterion_5_first_moment_convergence():
    started = time.time()
    ens = constant_ensemble(500)
    g = moment_cycle(1, monomial(1))
    est = tau_estimates([g], model_sampler(ens, distinct_labels([g])), trials=400, seed=1500)[0]
    exact = 1 / 27
    z = (est.mean - exact) / est.std_error
    rel_bias = abs(est.mean - exact) / exact
    ok = abs(z) <= 3 and rel_bias <= 0.05 and time.time() - started < 120
    line = report(
        5,
        "first-moment convergence",
        ok,
        f"mean {est.mean:.6f} vs 1/27, z = {z:+.2f}, relative bias {rel_bias:.2%}",
        started,
    )
    assert ok, line


def test_criterion_6_third_moment_channel():
    started = time.time()
    ens = constant_ensemble(400, law=unit_skewed_law())
    g = single_edge(monomial(3))
    est = tau_estimates([g], model_sampler(ens, distinct_labels([g])), trials=200, seed=1200)[0]
    exact = float(Fraction(1, 3) * Fraction(1, 3) * Fraction(9, 4))
    z = (est.mean - exact) / est.std_error
    ok = abs(z) <= 3 and time.time() - started < 120
    line = report(
        6,
        "third-moment channel",
        ok,
        f"mean {est.mean:.6f} vs {exact:.6f}, z = {z:+.2f}",
        started,
    )
    assert ok, line


def test_criterion_7_linear_plus_chaos_match():
    started = time.time()
    ens = constant_ensemble(300)
    half = constant_ensemble(150)
    lay = ens.layout
    h3 = monomial(3)
    params = LimitParams(psi=(Fraction(1, 3),) * 3)
    # Exact finite-N mean of the moment-1 model with Gaussian entries:
    # psi0 psi1 psi2 E[Z^6] for Z a normalised sum of N0 products w*x.
    finite_n_moment_1 = float(
        15 * lay.psi(0) * lay.psi(1) * lay.psi(2) * (1 + Fraction(6, lay.N0) + Fraction(8, lay.N0**2))
    )
    # one family per trial serves both moments, so each run draws once
    graphs = [moment_cycle(k, h3) for k in (1, 2)]
    ys, ys_half, es = ([[], []] for _ in range(3))
    model = tau_estimates(graphs, model_sampler(ens, [h3]), trials=200, seed=900, map_fn=recording_map(ys))
    tau_estimates(graphs, model_sampler(half, [h3]), trials=200, seed=900, map_fn=recording_map(ys_half))
    equivalent = tau_estimates(graphs, equivalent_sampler(ens, [h3]), trials=200, seed=900, map_fn=recording_map(es))
    legs = []
    raw = []
    for k, g, est_y, est_e, y, y_half, e in zip((1, 2), graphs, model, equivalent, ys, ys_half, es):
        exact = float(limit_pw(g, params))
        extrapolated, extrapolated_se = paired_combination((y, y_half), (2, -1))
        gap, gap_se = paired_combination((y, y_half, e), (2, -1, -1))
        legs.append((f"moment-{k} equivalent", (est_e.mean - exact) / est_e.std_error, 3))
        legs.append((f"moment-{k} extrapolated model", (extrapolated - exact) / extrapolated_se, 3))
        legs.append((f"moment-{k} pairwise", gap / gap_se, 4))
        if k == 1:
            legs.append(("moment-1 model vs finite-N mean", (est_y.mean - finite_n_moment_1) / est_y.std_error, 3))
        raw.append(f"moment-{k} model z={(est_y.mean - exact) / est_y.std_error:+.1f}")
    failing = [name for name, z, cap in legs if abs(z) > cap]
    detail = (
        "; ".join(f"{name} z={z:+.2f}" for name, z, _ in legs)
        + " | not asserted, raw N=900 vs limit: "
        + "; ".join(raw)
    )
    ok = not failing and time.time() - started < 600
    line = report(7, "linear-plus-chaos moment match", ok, detail, started)
    assert ok, (
        line
        + f" -- legs beyond their cap: {', '.join(failing) or 'none (time budget exceeded)'}. "
        "The extrapolated model 2*tau(N0=300) - tau(N0=150) cancels the model's O(1/N) "
        "finite-size bias (moment-1 mean exactly 15*psi0*psi1*psi2*(1 + 6/N0 + 8/N0^2)) "
        "and must match the exact limit and the Gaussian equivalent"
    )


def test_criterion_8_remainder_vanishing():
    started = time.time()
    h5 = monomial(5)

    def eps_sampler(ens):
        lay = ens.layout

        def sampler(rng):
            w, x = ens.draw(rng)
            eps = decompose(h5, power_sums(w, x, 5), lay).eps
            return MatrixFamily(lay).add(h5, eps, src_block=2, dst_block=1)

        return sampler

    graphs = {"single-edge": single_edge(h5), "moment-1": moment_cycle(1, h5)}
    runs = {}
    for n, block in ((300, 100), (900, 300)):
        # one remainder per trial serves both statistics
        values = [[] for _ in graphs]
        sampler = eps_sampler(constant_ensemble(block))
        estimates = tau_estimates(list(graphs.values()), sampler, trials=60, seed=8, map_fn=recording_map(values))
        for name, est, vals in zip(graphs, estimates, values):
            runs[(name, n)] = est, vals
    details = []
    ok = True
    for name in graphs:
        (small, small_values), (large, large_values) = runs[(name, 300)], runs[(name, 900)]
        shrinks = abs(large.mean) < abs(small.mean)
        z = abs(large.mean) / large.std_error
        detail = (
            f"{name}: |tau| {abs(small.mean):.2e} -> {abs(large.mean):.2e}"
            f" ({'shrinks' if shrinks else 'GROWS'}), "
        )
        if name == "single-edge":
            vanishes = z <= 3
            detail += f"z(900) = {z:.1f}"
        else:
            # A squared norm is positive, so it vanishes when it decays: the
            # exponent of N must be at least 1, within 3 se (delta method).
            exponent = math.log(small.mean / large.mean) / math.log(3)
            _, log_se = paired_combination((small_values, large_values), (1 / small.mean, -1 / large.mean))
            exponent_se = log_se / math.log(3)
            vanishes = exponent >= 1 - 3 * exponent_se
            detail += f"decay exponent {exponent:.3f} +- {exponent_se:.3f}, z(900) vs 0 = {z:.1f} (not asserted)"
        ok = ok and shrinks and vanishes
        details.append(detail)
    ok = ok and time.time() - started < 300
    line = report(8, "remainder vanishing", ok, "; ".join(details), started)
    assert ok, (
        line
        + " -- the remainder must shrink from N=300 to N=900, its single-edge statistic must "
        "be within 3 standard errors of zero at N=900, and its moment-1 squared norm must "
        "decay at least as 1/N (exponent log(tau300/tau900)/log 3 >= 1 within 3 standard errors)"
    )


def test_criterion_9_z_lambda_oracle():
    started = time.time()
    rng = np.random.default_rng(99)
    lams = [lam for n in range(1, 5) for lam in integer_partitions(n)]
    mismatches = 0
    checks = 0
    for _ in range(50):
        n0 = int(rng.integers(2, 9))
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w = rng.integers(-3, 4, size=(rows, n0))
        x = rng.integers(-3, 4, size=(n0, cols))
        lam = lams[int(rng.integers(0, len(lams)))]
        checks += 1
        got = z_lambda(lam, power_sums(w, x, sum(lam)))
        brute = np.zeros((rows, cols), dtype=object)
        for i in range(rows):
            for j in range(cols):
                acc = 0
                for d in itertools.permutations(range(n0), len(lam)):
                    term = 1
                    for dk, p in zip(d, lam):
                        term *= (int(w[i, dk]) * int(x[dk, j])) ** p
                    acc += term
                brute[i, j] = acc
        if not (got == brute).all():
            mismatches += 1
    ok = mismatches == 0 and time.time() - started < 30
    line = report(9, "distinct-index block-sum oracle", ok, f"{checks} instances, {mismatches} mismatches", started)
    assert ok, line
