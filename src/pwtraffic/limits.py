"""Exact limiting values of normalized traces over reference graphs.

The limit of a polynomial-labeled reference graph is a finite sum over
split quotients whose image is a pseudo-cactus: cut edges carry third-moment
weights, 2-cycles carry product moments, longer cycles carry first-derivative
moments, and the step profiles enter through an exact cell-average factor of
the quotient's niche expansion.  Everything is rational arithmetic.  One
fold over the split quotients serves all five limits: the component limits
(deterministic / linear / chaos) keep one channel of each strong component,
and their sum, one channel per strong component, must reproduce the full
limit for odd labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import (
    Edge,
    TestGraph,
    W_LABEL,
    X_LABEL,
    build_auxiliary,
    classify,
    eta,
    has_centered_support,
    is_connected,
    quotient,
    split_partitions,
)
from .hermite import Polynomial, gaussian_moment
from .models import StepProfile
from .partitions import SetPartition, restrict

MAX_LIMIT_EDGES = 4


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LimitParams:
    """Asymptotic data: block ratios, entry third moments, step graphons."""

    psi: tuple[Fraction, Fraction, Fraction]
    m3_w: Fraction
    m3_x: Fraction
    profile_w: StepProfile
    profile_x: StepProfile

    def __post_init__(self) -> None:
        psi = tuple(_frac(p) for p in self.psi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "m3_w", _frac(self.m3_w))
        object.__setattr__(self, "m3_x", _frac(self.m3_x))
        if any(p <= 0 for p in psi) or sum(psi) != 1:
            raise ValueError("block ratios must be positive and sum to 1")

    @staticmethod
    def of(psi, m3_w=0, m3_x=0, profile_w=None, profile_x=None) -> "LimitParams":
        return LimitParams(
            psi=tuple(_frac(p) for p in psi),
            m3_w=_frac(m3_w),
            m3_x=_frac(m3_x),
            profile_w=profile_w or StepProfile.constant(),
            profile_x=profile_x or StepProfile.constant(),
        )


# -- exact graphon average of a two-variable test graph ------------------------


def delta0_graphon(g: TestGraph, params: LimitParams) -> Fraction:
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
        breaks = {Fraction(0), Fraction(1)}
        for label, axis in axes_of_color[color]:
            k = axis_cells(profiles[label], axis)
            breaks.update(Fraction(i, k) for i in range(1, k))
        pts = sorted(breaks)
        cells = list(zip(pts[:-1], pts[1:]))
        domains[v] = [hi - lo for lo, hi in cells]
        for label, axis in axes_of_color[color]:
            k = axis_cells(profiles[label], axis)
            idx = []
            for lo, hi in cells:
                mid = (lo + hi) / 2
                idx.append(min(int(mid * k), k - 1))
            coarse[(v, label, axis)] = idx

    # factors: (sorted vertex tuple) -> table mapping cell assignments to values
    factors: list[tuple[tuple, dict]] = []
    for e in g.edges:
        profile = profiles[e.label]
        rows = coarse[(e.dst, e.label, "row")]
        cols = coarse[(e.src, e.label, "col")]
        table = {}
        for cd in range(len(domains[e.dst])):
            for cs in range(len(domains[e.src])):
                table[(cd, cs)] = profile.value(rows[cd], cols[cs])
        factors.append(((e.dst, e.src), table))

    remaining = set(g.vertex_ids)
    scalar = Fraction(1)
    order = {v: i for i, v in enumerate(g.vertex_ids)}
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
        es = [tq.edge_by_id(eid) for eid in eids]
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


def _validate_reference(g: TestGraph) -> None:
    if not g.edges:
        raise ValueError("reference graphs need at least one edge")
    if not is_connected(g):
        raise ValueError("the limit formulas require a connected graph")
    if len(g.edges) > MAX_LIMIT_EDGES:
        raise ValueError(f"limit evaluation guarded at {MAX_LIMIT_EDGES} edges")
    for e in g.edges:
        if g.color[e.src] != 2 or g.color[e.dst] != 1:
            raise ValueError("reference edges run from color 2 to color 1")
        if not isinstance(e.label, Polynomial):
            raise ValueError(f"edge {e.id!r} must be labeled by a Polynomial")
        if not e.label.is_odd:
            raise ValueError(f"edge {e.id!r} carries an even part; only odd polynomials converge")


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


@dataclass
class QuotientTerm:
    """The contribution of one split quotient, summed over the monomial terms."""

    partition: SetPartition
    value: Fraction


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
                value += weight * delta0_graphon(_niche_expansion(tq, plan), params)
        if value == 0:
            continue
        v1 = sum(1 for _, c in tq.vertices if c == 1)
        v2 = sum(1 for _, c in tq.vertices if c == 2)
        value *= psi1**v1 * psi2**v2
        if breakdown is not None:
            breakdown.append(QuotientTerm(partition=rho0, value=value))
        total += value
    return total


def limit_pw(g: TestGraph, params: LimitParams, breakdown: list | None = None) -> Fraction:
    """Exact limit of the normalized expected trace of the full model.

    ``breakdown``, when given, receives one :class:`QuotientTerm` per
    contributing split quotient; their values sum to the result.
    """
    return _limit(g, params, "pw", breakdown)


def limit_B(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the deterministic deformation family: tree quotients only."""
    return _limit(g, params, "B")


def limit_lin(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the linear family: cactus quotients (every edge in a cycle)."""
    return _limit(g, params, "lin")


def limit_per(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the chaos family: double-tree quotients, pair-kernel weights."""
    return _limit(g, params, "per")


def limit_equivalent_sum(g: TestGraph, params: LimitParams) -> Fraction:
    """Sum of the mixed-family limits over one channel per strong component.

    Each strong component of a quotient takes the deterministic channel (cut
    edges), the chaos channel (2-cycles) or the linear channel (cycles).  For
    odd labels this must equal :func:`limit_pw` exactly.
    """
    return _limit(g, params, "sum")


# -- exponent / support scan ------------------------------------------------------


@dataclass
class EtaScanReport:
    """Outcome of the exhaustive exponent scan of one reference graph."""

    n_partitions: int
    n_supported: int
    max_eta: Fraction | None
    eta_zero_partitions: list[SetPartition]
    pseudo_cactus_ok: bool
    violations: list[SetPartition]


def eta_support_scan(
    ref: TestGraph,
    max_label: int = 5,
    max_partitions: int = 5_000_000,
) -> EtaScanReport:
    """Scan every split quotient of the auxiliary graph for the size exponent.

    Quotients failing the centered-entry support filter (some w- or x-group
    of multiplicity one) are skipped.  The claim under test: the exponent is
    never positive, and every exponent-zero quotient restricts to a
    pseudo-cactus on the reference vertices.  Labels must be odd (even
    niches break the parity arguments and the traces themselves diverge).
    """
    if max_label > 5:
        raise ValueError("scan guarded at labels <= 5")
    for e in ref.edges:
        if not isinstance(e.label, int) or e.label < 1 or e.label > max_label:
            raise ValueError(f"edge {e.id!r} needs an integer label in 1..{max_label}")
        if e.label % 2 == 0:
            raise ValueError("the exponent bound holds for odd labels only")
    aux = build_auxiliary(ref)
    from .partitions import bell_number

    counts: dict[int, int] = {0: 0, 1: 0, 2: 0}
    for _, c in aux.graph.vertices:
        counts[c] += 1
    size = bell_number(counts[0]) * bell_number(counts[1]) * bell_number(counts[2])
    if size > max_partitions:
        raise ValueError(f"scan would enumerate {size} partitions > {max_partitions}")

    n_ref = len(ref.vertices)
    n_total = 0
    n_supported = 0
    max_eta: Fraction | None = None
    zero_partitions: list[SetPartition] = []
    violations: list[SetPartition] = []
    for pi in split_partitions(aux.graph):
        n_total += 1
        if not has_centered_support(aux, pi):
            continue
        n_supported += 1
        val = eta(aux, pi).eta
        if max_eta is None or val > max_eta:
            max_eta = val
        if val == 0:
            zero_partitions.append(pi)
            rho = restrict(pi, range(1, n_ref + 1))
            if not classify(quotient(ref, rho)).is_pseudo_cactus:
                violations.append(pi)
    return EtaScanReport(
        n_partitions=n_total,
        n_supported=n_supported,
        max_eta=max_eta,
        eta_zero_partitions=zero_partitions,
        pseudo_cactus_ok=not violations,
        violations=violations,
    )
