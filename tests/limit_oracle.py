"""Reference fold for the five exact limits: monomial terms and niche graphs.

The slow form of ``pwtraffic.limits.limit_values``, kept as a test oracle.
Every label is expanded into monomials; for each monomial term each strong
component of a pseudo-cactus split quotient takes one option (a weight and
a niche style), the options' niche blocks are assembled into one two-variable
test graph, and ``delta0_graphon_oracle`` evaluates that graph's
step-graphon average with its own colour-to-cell rule, apart from the
``models.CellKernels`` tables that the walk and ``delta0_graphon`` read.
``_limit(g, params, rule)`` computes one rule in {"pw", "B", "lin", "per",
"sum"}.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from pwtraffic.graphs import Edge, TestGraph, W_LABEL, X_LABEL, classify, quotient, split_partitions
from pwtraffic.hermite import gaussian_moment
from pwtraffic.limits import LimitParams, QuotientTerm, _eliminate, _validate_reference
from pwtraffic.models import StepProfile, cell_overlaps
from graphs_oracle import edge_by_id


# -- the step-graphon average, with its own cell rule -----------------------------


def delta0_graphon_oracle(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the injective-map entry-product average for step profiles.

    Every vertex is assigned an independent uniform position in [0, 1] for
    its block (injectivity corrections vanish in the limit); the value is the
    exact cell sum of the edge-value product weighted by cell measures.
    Edges must be labeled "w" or "x"; colors route vertices to profile axes:
    color 1 to the w rows, color 2 to the x columns, color 0 to both inner
    axes (their cell grids are refined jointly).
    """
    profiles = {W_LABEL: params.profile_w, X_LABEL: params.profile_x}
    axes_of_color = {
        1: ((W_LABEL, "row"),),
        2: ((X_LABEL, "col"),),
        0: ((W_LABEL, "col"), (X_LABEL, "row")),
    }

    def axis_cells(profile: StepProfile, axis: str) -> int:
        return profile.n_row_cells if axis == "row" else profile.n_col_cells

    domains: dict[object, list] = {}
    coarse: dict[tuple[object, str, str], list[int]] = {}
    for v, color in g.vertices:
        axes = axes_of_color[color]
        ks = [axis_cells(profiles[label], axis) for label, axis in axes]
        total = lcm(*ks)  # the joint refinement: the overlaps of lcm(ks) positions
        runs = cell_overlaps(total, *ks)
        domains[v] = [Fraction(n, total) for n, _ in runs]
        for k, (label, axis) in enumerate(axes):
            coarse[(v, label, axis)] = [cells[k] for _, cells in runs]

    factors: list[tuple[tuple, dict]] = []
    for e in g.edges:
        profile = profiles[e.label]
        rows = coarse[(e.dst, e.label, "row")]
        cols = coarse[(e.src, e.label, "col")]
        table = {(cd, cs): profile.value(r, c) for cd, r in enumerate(rows) for cs, c in enumerate(cols)}
        factors.append(((e.dst, e.src), table))
    return _eliminate(domains, factors)


# -- niche expansion of a pseudo-cactus quotient -------------------------------


def _add_block(vertices, edges, counter, src, dst, mult: int) -> None:
    """One internal block: `mult` parallel w-edges to dst and x-edges from src."""
    b = ("block", counter[0])
    counter[0] += 1
    vertices.append((b, 0))
    for r in range(mult):
        edges.append(Edge(("bw", b, r), b, dst, W_LABEL))
        edges.append(Edge(("bx", b, r), src, b, X_LABEL))


def _niche_expansion(tq: TestGraph, plan: Sequence[tuple[str, tuple, dict]]) -> TestGraph:
    """Assemble the contributing quotient of the auxiliary graph.

    ``plan`` holds (style, edge_ids, ns) per strong component: cut edges get
    one triple block plus pairs, paired cycles get pair blocks shared by the
    doubled endpoints, star cycles get one central block wired once into
    every cycle edge plus per-edge pairs.
    """
    vertices = list(tq.vertices)
    edges: list[Edge] = []
    counter = [0]
    for style, eids, ns in plan:
        es = [edge_by_id(tq, eid) for eid in eids]
        if style == "cut":
            (e,) = es
            n = ns[e.id]
            _add_block(vertices, edges, counter, e.src, e.dst, 3)
            for _ in range((n - 3) // 2):
                _add_block(vertices, edges, counter, e.src, e.dst, 2)
        elif style == "pair":
            total = sum(ns[e.id] for e in es)
            e = es[0]
            for _ in range(total // 2):
                _add_block(vertices, edges, counter, e.src, e.dst, 2)
        elif style == "star":
            center = ("block", counter[0])
            counter[0] += 1
            vertices.append((center, 0))
            for e in es:
                edges.append(Edge(("cw", center, e.id), center, e.dst, W_LABEL))
                edges.append(Edge(("cx", center, e.id), e.src, center, X_LABEL))
                for _ in range((ns[e.id] - 1) // 2):
                    _add_block(vertices, edges, counter, e.src, e.dst, 2)
        else:  # pragma: no cover
            raise ValueError(f"unknown niche style {style!r}")
    return TestGraph(vertices, edges)


# -- strong-component options ----------------------------------------------------


def _expect_monomial_derivative(n: int, k: int) -> Fraction:
    """E[h_n^(k)(xi)] for the monomial h_n; k = 0 gives the moment E[xi^n]."""
    if n < k:
        return Fraction(0)
    c = 1
    for i in range(k):
        c *= n - i
    return c * gaussian_moment(n - k)


def _options(rule: str, kind: str, eids: tuple, ns: dict, params: LimitParams) -> list[tuple[Fraction, str]]:
    """Nonzero (weight, niche style) options of one strong component under a rule.

    ``kind`` is "cut" or "cycle".  Rule "pw" is the full model: cut edges take
    the third-moment weight, 2-cycles the product moment E[h_n h_m] and longer
    cycles the product of E[h'].  Rules "B", "lin" and "per" are the
    deterministic, linear and chaos channels: B keeps only cut edges, per only
    2-cycles (with the kernel E[h_n h_m] - E[h_n'] E[h_m']), and lin only
    cycles.  Rule "sum" offers every channel of the component, so the fold
    picks one channel per strong component.
    """
    if rule == "sum":
        return [opt for channel in ("lin", "per", "B") for opt in _options(channel, kind, eids, ns, params)]
    moment = _expect_monomial_derivative
    if kind == "cut":
        if rule not in ("pw", "B"):
            return []
        weight, style = params.m3_w * params.m3_x / 6 * moment(ns[eids[0]], 3), "cut"
    elif len(eids) == 2 and rule in ("pw", "per"):
        n, m = ns[eids[0]], ns[eids[1]]
        weight = moment(n + m, 0) - (moment(n, 1) * moment(m, 1) if rule == "per" else 0)
        weight, style = params.psi[0] * weight, "pair"
    elif rule in ("pw", "lin"):
        weight, style = params.psi[0], "star"
        for eid in eids:
            weight *= moment(ns[eid], 1)
    else:
        return []
    return [(weight, style)] if weight else []


# -- label expansion and the fold over split quotients ---------------------------


def _monomial_terms(g: TestGraph) -> list[tuple[Fraction, dict]]:
    """Multilinear expansion: [(coefficient, edge id -> monomial degree)]."""
    per_edge = []
    for e in g.edges:
        terms = [(n, c) for n, c in enumerate(e.label.power_coeffs) if c != 0]
        per_edge.append((e.id, terms))
    out: list[tuple[Fraction, dict]] = []
    for combo in itertools.product(*(t for _, t in per_edge)):
        coeff = Fraction(1)
        ns = {}
        for (eid, _), (n, c) in zip(per_edge, combo):
            coeff *= c
            ns[eid] = n
        out.append((coeff, ns))
    return out


def _limit(g: TestGraph, params: LimitParams, rule: str, breakdown: list | None = None) -> Fraction:
    """Sum every pseudo-cactus split quotient of ``g`` under one option rule.

    Each quotient is enumerated and classified once; for every monomial term
    each strong component contributes one of its options, and every choice
    of options adds its weight times the graphon average of the niche
    expansion.  ``breakdown`` collects one term per contributing quotient.
    """
    _validate_reference(g)
    terms = _monomial_terms(g)
    psi1, psi2 = params.psi[1], params.psi[2]
    total = Fraction(0)
    for rho0 in split_partitions(g):
        tq = quotient(g, rho0)
        report = classify(tq)
        if not report.is_pseudo_cactus:
            continue
        components = [("cut", (eid,)) for eid in report.cut_edges]
        components += [("cycle", c) for c in report.all_cycles]
        value = Fraction(0)
        for coeff, ns in terms:
            options = [_options(rule, kind, eids, ns, params) for kind, eids in components]
            for choice in itertools.product(*options):
                weight = coeff
                plan = []
                for (_, eids), (w, style) in zip(components, choice):
                    weight *= w
                    plan.append((style, eids, ns))
                value += weight * delta0_graphon_oracle(_niche_expansion(tq, plan), params)
        if value == 0:
            continue
        v1 = sum(1 for _, c in tq.vertices if c == 1)
        v2 = sum(1 for _, c in tq.vertices if c == 2)
        value *= psi1**v1 * psi2**v2
        if breakdown is not None:
            breakdown.append(QuotientTerm(partition=rho0, value=value))
        total += value
    return total
