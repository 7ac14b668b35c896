"""Reference fold for the five exact limits: monomial terms and niche graphs.

The slow form of ``pwtraffic.limits.limit_values``, kept as a test oracle.
Every label is expanded into monomials; for each monomial term each strong
component of a pseudo-cactus split quotient takes one option (a weight and
a niche style), the options' niche blocks are assembled into one two-variable
test graph, and ``delta0_graphon_oracle`` evaluates that graph's
step-graphon average with its own colour-to-cell rule, apart from the
``profiles.CellKernels`` tables that the walk and ``delta0_graphon`` read.
``_limit(g, params, rule)`` computes one rule in {"pw", "B", "lin", "per",
"sum"}.

``limit_values_loop`` is the per-partition loop that ``limit_values``
replaced: every split partition built, quotiented and classified, one
``_eliminate`` per rule.  ``delta0_graphon_oracle`` runs
``eliminate_oracle``, the elimination as it stood before the slot reads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from pwtraffic.graphs import Edge, TestGraph, W_LABEL, X_LABEL, classify, quotient, split_partitions
from pwtraffic.hermite import gaussian_moment
from pwtraffic.limits import (
    RULES,
    LimitParams,
    LimitValues,
    QuotientTerm,
    _eliminate,
    _limit_kernels,
    _star_table,
    _two_cycle_tables,
    _validate_reference,
)
from pwtraffic.profiles import StepProfile, cell_overlaps
from graphs_oracle import all_cycles, edge_by_id


# -- variable elimination, as it stood before the slot reads ----------------------


def eliminate_oracle(domains: dict, factors: list[tuple[tuple, dict]]) -> Fraction:
    """Sum over all cell assignments of the cell measures times the factors.

    The elimination loop as it stood before ``limits._eliminate`` read its
    tables through slot tuples: neighbour sets rebuilt per candidate, each
    key built from a dict of the current assignment.

    ``domains`` maps each variable to the measures of its cells, in the
    order that breaks elimination ties; a factor is (variables, table keyed
    by their cell tuple).  Variables are summed out one at a time, the one
    with the fewest neighbours first.
    """
    remaining = set(domains)
    scalar = Fraction(1)
    order = {v: i for i, v in enumerate(domains)}
    while remaining:
        v = min(
            remaining,
            key=lambda u: (len({w for vars_, _ in factors for w in vars_ if u in vars_ and w != u}), order[u]),
        )
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        neighbor_vars = sorted({w for vars_, _ in touching for w in vars_ if w != v}, key=order.get)
        table: dict[tuple, Fraction] = {}
        for assign in itertools.product(*(range(len(domains[w])) for w in neighbor_vars)):
            ctx = dict(zip(neighbor_vars, assign))
            total = Fraction(0)
            for cv, measure in enumerate(domains[v]):
                ctx[v] = cv
                prod = measure
                for vars_, tab in touching:
                    prod *= tab[tuple(ctx[w] for w in vars_)]
                    if prod == 0:
                        break
                total += prod
            table[assign] = total
        if neighbor_vars:
            factors.append((tuple(neighbor_vars), table))
        else:
            scalar *= table[()]
        remaining.remove(v)
    for vars_, tab in factors:  # pragma: no cover - all vars were eliminated
        raise AssertionError("variable elimination left a live factor")
    return scalar


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
        table = {(cd, cs): profile.grid[r][c] for cd, r in enumerate(rows) for cs, c in enumerate(cols)}
        factors.append(((e.dst, e.src), table))
    return eliminate_oracle(domains, factors)


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
        components += [("cycle", c) for c in all_cycles(report)]
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


# -- the per-partition loop that the walk replaced ----------------------------------


def limit_values_loop(g: TestGraph, params: LimitParams) -> LimitValues:
    """All five exact limits of ``g`` from every split quotient, built, quotiented and classified.

    The loop that ``limits.limit_values`` replaced with one pruned walk and a
    memo per isomorphism class; it shares the cell tables and ``_eliminate``.

    Each pseudo-cactus quotient is classified once.  Every strong component
    offers one cell table per rule: a cut edge under pw, B and sum; a
    2-cycle under pw, lin, per and sum (under sum over a centre of its own);
    a longer cycle its star under pw, lin and sum.  A rule that some component does not offer gets nothing
    from the quotient; otherwise the quotient adds the eliminated product of
    the tables, times psi0 per cycle and psi1, psi2 per quotient vertex of
    color 1, 2.
    """
    _validate_reference(g)
    kernels = _limit_kernels(params)
    measures, psi, m3 = kernels.measures, params.psi, params.m3_w * params.m3_x / 6
    totals = dict.fromkeys(RULES, Fraction(0))
    breakdown: list[QuotientTerm] = []
    for rho0 in split_partitions(g):
        tq = quotient(g, rho0)
        report = classify(tq)
        if not report.is_pseudo_cactus:
            continue
        var = {v: i for i, v in enumerate(tq.vertex_ids)}
        domains = {var[v]: measures[color] for v, color in tq.vertices}
        edge = {e.id: e for e in tq.edges}
        components: list[dict[str, list]] = []
        for eid in report.cut_edges:
            e = edge[eid]
            factors = [((var[e.dst], var[e.src]), kernels.deformation(e.label, m3))]
            components.append({"pw": factors, "B": factors, "sum": factors})
        for a, b in report.two_cycles:
            e = edge[a]
            by_rule = _two_cycle_tables(e.label, edge[b].label, kernels)
            centre = len(domains)
            domains[centre] = measures[0]
            comp = {rule: [((var[e.dst], var[e.src]), by_rule[rule])] for rule in ("pw", "lin", "per")}
            comp["sum"] = [((var[e.dst], centre, var[e.src]), by_rule["sum"])]
            components.append(comp)
        for cycle in report.long_cycles:
            centre = len(domains)
            domains[centre] = measures[0]
            factors = [
                ((var[e.dst], centre, var[e.src]), _star_table(e.label, kernels)) for e in map(edge.get, cycle)
            ]
            components.append({"pw": factors, "lin": factors, "sum": factors})
        scale = psi[0] ** len(all_cycles(report)) * prod(psi[color] for _, color in tq.vertices)
        for rule in RULES:
            if all(rule in comp for comp in components):
                factors = [f for comp in components for f in comp[rule]]
                used = {v for vars_, _ in factors for v in vars_}
                value = scale * _eliminate({v: m for v, m in domains.items() if v in used}, factors)
                totals[rule] += value
                if rule == "pw" and value != 0:
                    breakdown.append(QuotientTerm(partition=rho0, value=value))
    return LimitValues(**totals, breakdown=tuple(breakdown))
