"""Exact limiting values of normalized traces over reference graphs.

The limit of a reference graph labeled by odd polynomials is a finite sum
over its split quotients whose image is a pseudo-cactus.  In such a
quotient every strong component carries one channel: a table over the step
cells (r, c) of its endpoints, built from the cell kernels
K_l(r, c) = sum_inner mu * w(r, .)^l * x(., c)^l, mu the measures of the
joint refinement of the inner cells, and from label-level Gaussian
expectations at scale K_2.  Both come from ``models.cell_kernels`` at
N0 = lcm of the inner grid sizes: the limit kernels are the finite ones at
that size, built by the equivalents' own code.

- a cut edge labeled h carries the deformation
  m3_w m3_x / 6 * K_3 * E[h'''(sqrt(K_2) xi)];
- a 2-cycle labeled (h, g) carries psi0 * E[(h g)(sqrt(K_2) xi)], of which
  psi0 * K_2 * E[h'(sqrt(K_2) xi)] E[g'(sqrt(K_2) xi)] is linear and the
  rest is chaos;
- a longer cycle carries the linear star: psi0 times the star-centre table
  sum_c mu(c) prod_e w(d_e, c) x(c, s_e) E[h_e'(sqrt(K_2(d_e, s_e)) xi)].

The tables are multiplied and integrated over the quotient-vertex cells and
the star centres by one variable-elimination loop, the loop that
``delta0_graphon`` runs on a two-variable test graph.  One walk over the
split quotients (``limit_values``) gives all five limits: the full limit,
the deterministic, linear and chaos limits (every component in that one
channel), and their sum with one channel per strong component, which must
reproduce the full limit for odd labels.  The sum is its own elimination:
a 2-cycle's chaos table is the Wiener chaos series of its product moment
(orders other than one) and its linear channel is the product of its two
star tables over a centre of its own, so a fault in the kernels, the stars
or the Gaussian expectations shows as a full limit that differs from the
sum (the CLI's ``mismatch`` flag).  Everything is rational
arithmetic.  Reference graphs are guarded at ``MAX_LIMIT_EDGES`` = 8 edges,
so the CLI's ``limit`` and ``compare`` run up to moment-4.

The exponent scan (``eta_support_scan``) walks the supported split partitions
of the auxiliary graph in one flat recursion, counts the leaves and their
block counts in place, and materialises only the exponent-zero leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .graphs import (
    AuxiliaryGraph,
    TestGraph,
    W_LABEL,
    X_LABEL,
    build_auxiliary,
    classify,
    is_connected,
    quotient,
    split_partitions,
)
from .hermite import Polynomial, _frac
from .models import CellKernels, StepProfile, cell_kernels, cell_overlaps
from .partitions import SetPartition, bell_number, restricted_growth_strings

MAX_LIMIT_EDGES = 8
#: Guard of the exponent scan: the Bell-number count of split partitions.
MAX_SCAN_PARTITIONS = 5_000_000


@dataclass(frozen=True)
class LimitParams:
    """Asymptotic data: block ratios, entry third moments, step graphons."""

    psi: tuple[Fraction, Fraction, Fraction]
    m3_w: Fraction = Fraction(0)
    m3_x: Fraction = Fraction(0)
    profile_w: StepProfile = StepProfile.constant()
    profile_x: StepProfile = StepProfile.constant()

    def __post_init__(self) -> None:
        psi = tuple(_frac(p) for p in self.psi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "m3_w", _frac(self.m3_w))
        object.__setattr__(self, "m3_x", _frac(self.m3_x))
        if any(p <= 0 for p in psi) or sum(psi) != 1:
            raise ValueError("block ratios must be positive and sum to 1")


# -- cell tables and their variable elimination --------------------------------


def _eliminate(domains: dict, factors: list[tuple[tuple, dict]]) -> Fraction:
    """Sum over all cell assignments of the cell measures times the factors.

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


# -- the walk over split quotients -------------------------------------------------

RULES = ("pw", "B", "lin", "per", "sum")


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


@dataclass
class QuotientTerm:
    """The full-limit contribution of one split quotient."""

    partition: SetPartition
    value: Fraction


@dataclass(frozen=True)
class LimitValues:
    """The five exact limits of one reference graph.

    ``pw`` is the full limit; ``B``, ``lin`` and ``per`` the deterministic,
    linear and chaos limits; ``sum`` the one-channel-per-strong-component
    sum, computed apart from ``pw`` and equal to it for odd labels.  ``breakdown`` holds one
    :class:`QuotientTerm` per split quotient with a nonzero full-limit
    contribution; their values sum to ``pw``.
    """

    pw: Fraction
    B: Fraction
    lin: Fraction
    per: Fraction
    sum: Fraction
    breakdown: tuple[QuotientTerm, ...]


# Channel tables, built once per (labels, kernels) and shared between walks
# (read only).  Cut-edge and 2-cycle tables are keyed by the (w-row cell,
# x-column cell) of the component's target and source; a star edge's table
# also by the centre's inner cell.  The psi0 of a cycle is left to the walk.


@lru_cache(maxsize=None)
def _star_table(h: Polynomial, kernels: CellKernels) -> dict:
    first = kernels.expect(h.derivative(1))
    value_w, value_x = kernels.profile_w.value, kernels.profile_x.value
    return {
        (r, z, c): value_w(r, cw) * value_x(rx, c) * first[r, c]
        for z, (_, cw, rx) in enumerate(kernels.inner)
        for r, c in kernels.k2
    }


@lru_cache(maxsize=None)
def _two_cycle_tables(h1: Polynomial, h2: Polynomial, kernels: CellKernels) -> dict[str, dict]:
    """The 2-cycle's table under every rule but B.

    pw is E[(h1 h2)(sqrt(K_2) xi)].  lin and per are the first and the other
    Wiener chaoses of that product moment, E[h1 h2] = sum_k K_2^k / k!
    E[h1^(k)] E[h2^(k)], so per is summed term by term and not taken as
    pw - lin.  The sum table is keyed by (target, centre, source) cells: the
    linear channel as the product of the two star tables over its own
    centre, plus per.  Integrated over the centre it must reproduce pw.
    """
    derivs = [[kernels.expect(h.derivative(k)) for h in (h1, h2)] for k in range(max(h1.degree, h2.degree, 1) + 1)]
    chaos = {
        rc: [q**k / factorial(k) * a[rc] * b[rc] for k, (a, b) in enumerate(derivs)] for rc, q in kernels.k2.items()
    }
    lin = {rc: terms[1] for rc, terms in chaos.items()}
    per = {rc: sum(terms[:1] + terms[2:]) for rc, terms in chaos.items()}
    s1, s2 = _star_table(h1, kernels), _star_table(h2, kernels)
    star_sum = {(r, z, c): t * s2[r, z, c] + per[r, c] for (r, z, c), t in s1.items()}
    return {"pw": kernels.expect(h1 * h2), "lin": lin, "per": per, "sum": star_sum}


def limit_values(g: TestGraph, params: LimitParams) -> LimitValues:
    """All five exact limits of ``g`` from one walk over its split quotients.

    Each pseudo-cactus quotient is classified once.  Every strong component
    offers one cell table per rule: a cut edge under pw, B and sum; a
    2-cycle under pw, lin, per and sum (under sum over a centre of its own);
    a longer cycle its star under pw, lin and sum.  A rule that some component does not offer gets nothing
    from the quotient; otherwise the quotient adds the eliminated product of
    the tables, times psi0 per cycle and psi1, psi2 per quotient vertex of
    color 1, 2.
    """
    _validate_reference(g)
    prof_w, prof_x = params.profile_w, params.profile_x
    # the limit kernels are the finite ones at N0 = lcm of the inner grid sizes
    kernels = cell_kernels(prof_w, prof_x, lcm(prof_w.n_col_cells, prof_x.n_row_cells))
    centre_measures = [m for m, _, _ in kernels.inner]
    n1, n2 = prof_w.n_row_cells, prof_x.n_col_cells
    measures = {1: [Fraction(1, n1)] * n1, 2: [Fraction(1, n2)] * n2}  # uniform cells of the outer axes
    m3 = params.m3_w * params.m3_x / 6
    psi0, psi1, psi2 = params.psi
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
            domains[centre] = centre_measures
            comp = {rule: [((var[e.dst], var[e.src]), by_rule[rule])] for rule in ("pw", "lin", "per")}
            comp["sum"] = [((var[e.dst], centre, var[e.src]), by_rule["sum"])]
            components.append(comp)
        for cycle in report.long_cycles:
            centre = len(domains)
            domains[centre] = centre_measures
            factors = [
                ((var[e.dst], centre, var[e.src]), _star_table(e.label, kernels)) for e in map(edge.get, cycle)
            ]
            components.append({"pw": factors, "lin": factors, "sum": factors})
        v1 = sum(1 for _, c in tq.vertices if c == 1)
        scale = psi0 ** len(report.all_cycles) * psi1**v1 * psi2 ** (len(tq.vertices) - v1)
        for rule in RULES:
            if all(rule in comp for comp in components):
                factors = [f for comp in components for f in comp[rule]]
                used = {v for vars_, _ in factors for v in vars_}
                value = scale * _eliminate({v: m for v, m in domains.items() if v in used}, factors)
                totals[rule] += value
                if rule == "pw" and value != 0:
                    breakdown.append(QuotientTerm(partition=rho0, value=value))
    return LimitValues(**totals, breakdown=tuple(breakdown))


def limit_pw(g: TestGraph, params: LimitParams) -> Fraction:
    """Exact limit of the normalized expected trace of the full model.

    Its per-quotient terms are :attr:`LimitValues.breakdown` of
    :func:`limit_values`.
    """
    return limit_values(g, params).pw


def limit_B(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the deterministic deformation family: tree quotients only."""
    return limit_values(g, params).B


def limit_lin(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the linear family: cactus quotients (every edge in a cycle)."""
    return limit_values(g, params).lin


def limit_per(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the chaos family: double-tree quotients, pair-kernel weights."""
    return limit_values(g, params).per


def limit_equivalent_sum(g: TestGraph, params: LimitParams) -> Fraction:
    """Sum of the mixed-family limits over one channel per strong component.

    Each strong component of a quotient takes the deterministic channel (cut
    edges), the chaos channel (2-cycles) or the linear channel (cycles).  For
    odd labels this must equal :func:`limit_pw` exactly.
    """
    return limit_values(g, params).sum


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


def _scan_splits(aux: AuxiliaryGraph, offset: int) -> tuple[int, int, list[tuple[tuple[int, ...], ...]]]:
    """Walk the split partitions of the auxiliary graph with centered support.

    Under each pair of reference partitions one recursion assigns the internal
    labels in niche order, with the w- and x-group multiplicities in flat lists
    (reference block * n0 + internal block).  A prefix is cut once either
    singleton count exceeds the vertices still unassigned.  Returns the count,
    the largest block count (-1 if none) and the (internal, targets, sources)
    labels of the leaves with ``offset`` blocks.
    """
    by_class = {c: [v for v, cv in aux.reference.vertices if cv == c] for c in (1, 2)}
    index = {v: k for vs in by_class.values() for k, v in enumerate(vs)}
    ends = [(index[e.dst], index[e.src]) for e in aux.reference.edges for _ in aux.niches[e.id]]
    n0 = len(ends)
    labels = [0] * n0
    w_mult, x_mult = [0] * (len(by_class[1]) * n0), [0] * (len(by_class[2]) * n0)
    n_supported, max_blocks, zeros = 0, -1, []

    def walk(i: int, n_blocks: int, w_single: int, x_single: int) -> None:
        nonlocal n_supported, max_blocks
        if i == n0:
            n_supported += 1
            n_blocks += outer  # the target and source blocks
            if n_blocks > max_blocks:
                max_blocks = n_blocks
            if n_blocks == offset:
                zeros.append((tuple(labels), targets, sources))
            return
        bw, bx, left = w_base[i], x_base[i], n0 - 1 - i
        for b in range(n_blocks + 1):
            kw, kx = bw + b, bx + b
            mw, mx = w_mult[kw], x_mult[kx]
            ws = w_single + (mw == 0) - (mw == 1)
            xs = x_single + (mx == 0) - (mx == 1)
            if ws <= left and xs <= left:
                w_mult[kw], x_mult[kx] = mw + 1, mx + 1
                labels[i] = b
                walk(i + 1, n_blocks + (b == n_blocks), ws, xs)
                w_mult[kw], x_mult[kx] = mw, mx

    for targets in restricted_growth_strings(len(by_class[1])):
        for sources in restricted_growth_strings(len(by_class[2])):
            w_base = [targets[t] * n0 for t, _ in ends]
            x_base = [sources[s] * n0 for _, s in ends]
            outer = max(targets, default=-1) + max(sources, default=-1) + 2
            walk(0, 0, 0, 0)
    return n_supported, max_blocks, zeros


def _eta_offset(ref: TestGraph) -> int:
    """1 + (|E| + sum_e n(e))/2, an integer for odd labels: a quotient's exponent is its block count minus this."""
    return 1 + (len(ref.edges) + sum(e.label for e in ref.edges)) // 2


def _from_labels(ground_size: int, classes) -> SetPartition:
    """The split partition whose class on each position list has those RGS labels."""
    blocks: dict[tuple[int, int], list[int]] = {}
    for k, (positions, labels) in enumerate(classes):
        for p, lab in zip(positions, labels):
            blocks.setdefault((k, lab), []).append(p)
    return SetPartition.from_blocks(ground_size, blocks.values())


def eta_support_scan(ref: TestGraph, max_label: int = 5) -> EtaScanReport:
    """Scan every split quotient of the auxiliary graph for the size exponent.

    Quotients failing the centered-entry support filter (some w- or x-group
    of multiplicity one) are skipped.  The claim under test: the exponent is
    never positive, and every exponent-zero quotient restricts to a
    pseudo-cactus on the reference vertices.  Labels must be odd (even
    niches break the parity arguments and the traces themselves diverge).

    One flat walk (``_scan_splits``) prunes the restricted-growth strings, so
    ``n_partitions`` is the Bell-number count of split partitions, not the
    number visited.  It counts the supported quotients and their largest block
    count (the exponent plus ``_eta_offset``) in place.  Only exponent-zero
    leaves become :class:`SetPartition` objects, in ``split_partitions``
    order; the pseudo-cactus test runs once per reference-vertex partition.
    """
    if max_label > 5:
        raise ValueError("scan guarded at labels <= 5")
    for e in ref.edges:
        if not isinstance(e.label, int) or e.label < 1 or e.label > max_label:
            raise ValueError(f"edge {e.id!r} needs an integer label in 1..{max_label}")
        if e.label % 2 == 0:
            raise ValueError("the exponent bound holds for odd labels only")
    if any(c == 0 for _, c in ref.vertices):
        raise ValueError("reference vertices must have color 1 or 2")
    aux = build_auxiliary(ref)
    positions = {c: [i + 1 for i, (_, cv) in enumerate(aux.graph.vertices) if cv == c] for c in (0, 1, 2)}
    size = prod(bell_number(len(p)) for p in positions.values())
    if size > MAX_SCAN_PARTITIONS:
        raise ValueError(f"scan would enumerate {size} partitions > {MAX_SCAN_PARTITIONS}")

    offset = _eta_offset(ref)
    n_supported, max_blocks, zeros = _scan_splits(aux, offset)
    zeros.sort()  # split_partitions order: lexicographic in the RGS of color 0, then 1, then 2

    pseudo_cactus: dict[tuple, bool] = {}
    zero_partitions: list[SetPartition] = []
    violations: list[SetPartition] = []
    for labels in zeros:
        pi = _from_labels(len(aux.graph.vertices), zip(positions.values(), labels))
        zero_partitions.append(pi)
        key = labels[1:]  # the reference labels: pi restricted to the reference vertices
        if key not in pseudo_cactus:
            rho = _from_labels(len(ref.vertices), zip((positions[1], positions[2]), key))
            pseudo_cactus[key] = classify(quotient(ref, rho)).is_pseudo_cactus
        if not pseudo_cactus[key]:
            violations.append(pi)
    return EtaScanReport(
        n_partitions=size,
        n_supported=n_supported,
        max_eta=Fraction(max_blocks - offset) if n_supported else None,
        eta_zero_partitions=zero_partitions,
        pseudo_cactus_ok=not violations,
        violations=violations,
    )
