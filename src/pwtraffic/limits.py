"""Exact limiting values of normalized traces over reference graphs.

The limit of a reference graph labeled by odd polynomials is a finite sum
over its split quotients whose image is a pseudo-cactus.  In such a
quotient every strong component carries one channel: a table over the step
cells (r, c) of its endpoints, built from the cell kernels
K_l(r, c) = sum_inner mu * w(r, .)^l * x(., c)^l, mu the measures of the
joint refinement of the inner cells, and from label-level Gaussian
expectations at scale K_2.  Every exact value here reads these and the
cell measures and w and x values from one ``profiles.CellKernels`` at N0 =
lcm of the inner grid sizes (``_limit_kernels``): the limit tables are the
finite ones at that size, built by the equivalents' own code.  This module
and ``profiles`` import nothing of the sampler (``models``, ``traffic``) and
no numpy.

- a cut edge labeled h carries the deformation
  m3_w m3_x / 6 * K_3 * E[h'''(sqrt(K_2) xi)];
- a 2-cycle labeled (h, g) carries psi0 * E[(h g)(sqrt(K_2) xi)], of which
  psi0 * K_2 * E[h'(sqrt(K_2) xi)] E[g'(sqrt(K_2) xi)] is linear and the
  rest is chaos;
- a longer cycle carries the linear star: psi0 times the star-centre table
  sum_c mu(c) prod_e w(d_e, c) x(c, s_e) E[h_e'(sqrt(K_2(d_e, s_e)) xi)].

The tables are multiplied and integrated over the quotient-vertex cells and
the star centres by one variable-elimination loop (``_eliminate``), which
``delta0_graphon`` runs on a two-variable test graph with one w or x value
table per edge.  One pruned walk (``_pseudo_cacti``) lists the
pseudo-cactus split quotients, adding edges by ``classify``'s own rule
(``graphs.join_edge``), and ``limit_values`` eliminates one quotient
per isomorphism class (``_class_key``) and per distinct factor list, for
all five limits: the full limit, the deterministic, linear and chaos limits
(every component in that one channel), and their sum with one channel per
strong component, which must reproduce the full limit for odd labels.  The
sum is its own elimination: a 2-cycle's chaos table is the Wiener chaos
series of its product moment (orders other than one) and its linear channel
is the product of its two star tables over a centre of its own, so a fault
in the kernels, the stars or the Gaussian expectations shows as a full
limit that differs from the sum (the CLI's ``mismatch`` flag).  Everything
is rational arithmetic.  Reference graphs are guarded at
``MAX_LIMIT_EDGES`` = 12 edges, so the CLI's ``limit`` and ``compare`` run
up to moment-6.

The exponent scan (``eta_support_scan``) reads a reference graph once, with
the limit walk's reader (``_read_reference``), and its niches off the labels.
It walks the supported split partitions of the auxiliary graph once per
canonical state (the sorted codes of the internal blocks, each its group
multiplicities capped at 2 over the reference blocks that a later vertex still
touches), keeping its leaf, block and exponent-zero counts, and refuses a
graph past ``MAX_SCAN_STATES`` states.  Only a reference pair that has an
exponent-zero leaf is put to the limit walk's rule (``_is_pseudo_cactus``),
and its leaves are listed by one descent and one sort, built by
``SetPartition.from_labels``, when read or if the pair fails that rule.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import lcm, prod
from operator import or_

from .graphs import TestGraph, W_LABEL, X_LABEL, _union_find, check_reference_edges, join_edge
from .hermite import Polynomial, _clip, _frac
from .partitions import SetPartition, bell_number, restricted_growth_strings
from .profiles import CellKernels, StepProfile, cell_kernels

MAX_LIMIT_EDGES = 12
#: Guard of the exponent scan: the walk states it memoises, over all reference pairs.
MAX_SCAN_STATES = 100_000


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
    with the fewest neighbours first.  A measure shared by all cells of a
    variable is taken out of the sum, any other is one more table.  Each
    step builds the neighbour sets once and reads each touching table
    through its slots in the step's (neighbours..., variable) cell tuple.
    """
    uniform = {v: measures[0] for v, measures in domains.items() if len(set(measures)) == 1}
    scalar = prod(uniform.values(), start=Fraction(1))
    factors = [*factors, *(((v,), {(c,): x for c, x in enumerate(m)}) for v, m in domains.items() if v not in uniform)]
    order = {v: i for i, v in enumerate(domains)}
    while order:
        neighbors: dict = {v: set() for v in order}
        for vars_, _ in factors:
            for u in vars_:
                neighbors[u].update(vars_)
        v = min(order, key=lambda u: (len(neighbors[u] - {u}), order[u]))
        touching = [f for f in factors if v in f[0]] or [((), {(): 1})]
        factors = [f for f in factors if v not in f[0]]
        neighbor_vars = sorted(neighbors[v] - {v}, key=order.get)
        slot = {w: i for i, w in enumerate([*neighbor_vars, v])}
        (first, head), *rest = [(tuple(slot[w] for w in vars_), tab) for vars_, tab in touching]
        table: dict[tuple, Fraction] = {}
        for assign in itertools.product(*(range(len(domains[w])) for w in neighbor_vars)):
            cells = [*assign, 0]
            total = None
            for cv in range(len(domains[v])):
                cells[-1] = cv
                term = head[tuple([cells[i] for i in first])]
                for slots, tab in rest:
                    if not term:
                        break
                    term *= tab[tuple([cells[i] for i in slots])]
                total = term if total is None else total + term
            table[assign] = total
        factors.append((tuple(neighbor_vars), table))
        del order[v]
    return scalar * prod(tab[()] for _, tab in factors)  # only variable-free factors are left


def _limit_kernels(params: LimitParams) -> CellKernels:
    """The limit cell tables: the finite ones at N0 = lcm of the inner grid sizes."""
    prof_w, prof_x = params.profile_w, params.profile_x
    return cell_kernels(prof_w, prof_x, lcm(prof_w.n_col_cells, prof_x.n_row_cells))


def delta0_graphon(g: TestGraph, params: LimitParams) -> Fraction:
    """Limit of the injective-map entry-product average for step profiles.

    Every vertex is assigned an independent uniform position in [0, 1] for
    its block (injectivity corrections vanish in the limit); the value is the
    exact cell sum of the edge-value product weighted by cell measures, over
    the cells of :attr:`CellKernels.measures` by vertex colour.  A "w" edge
    runs from color 0 to color 1 and reads ``w_table``, an "x" edge from
    color 2 to color 0 and reads ``x_table``; any other edge is a ValueError.
    """
    kernels = _limit_kernels(params)
    ends = {W_LABEL: (0, 1, kernels.w_table), X_LABEL: (2, 0, kernels.x_table)}
    factors: list[tuple[tuple, dict]] = []
    for e in g.edges:
        src_color, dst_color, table = ends.get(e.label, (None, None, None))
        if (g.color[e.src], g.color[e.dst]) != (src_color, dst_color):
            raise ValueError(f"edge {_clip(e.id)}: a graphon edge is w from color 0 to 1 or x from color 2 to 0")
        factors.append(((e.dst, e.src), table))
    return _eliminate({v: kernels.measures[color] for v, color in g.vertices}, factors)


# -- the walk over split quotients -------------------------------------------------

RULES = ("pw", "B", "lin", "per", "sum")
#: A reference graph as :func:`_read_reference` reads it.
Reference = tuple[list[int], list[int], list[tuple[int, int]]]


def _read_reference(g: TestGraph) -> Reference:
    """The positions of the colour-1 and of the colour-2 vertices, and each edge's (target, source) ranks among them.

    The limit walk and the exponent scan read a reference graph here: a
    vertex of another colour, a disconnected graph and an edge that does not
    run from colour 2 to colour 1 are refused.
    """
    positions: tuple[list[int], list[int]] = ([], [])
    index, rank = {}, {}
    for i, (v, c) in enumerate(g.vertices):
        if c not in (1, 2):
            raise ValueError("reference vertices must have color 1 or 2")
        index[v], rank[v] = i, len(positions[c - 1])
        positions[c - 1].append(i + 1)
    if len(set(_union_find(range(len(index)), ((index[e.src], index[e.dst]) for e in g.edges)).values())) > 1:
        raise ValueError("reference graphs must be connected")
    check_reference_edges(g)
    return *positions, [(rank[e.dst], rank[e.src]) for e in g.edges]


def _validate_reference(g: TestGraph) -> Reference:
    """The reader's view of a reference graph that the limit formulas take: one to 12 edges, odd polynomial labels."""
    if not g.edges:
        raise ValueError("reference graphs need at least one edge")
    if len(g.edges) > MAX_LIMIT_EDGES:
        raise ValueError(f"limit evaluation guarded at {MAX_LIMIT_EDGES} edges")
    for e in g.edges:
        if not isinstance(e.label, Polynomial):
            raise ValueError(f"edge {_clip(e.id)} must be labeled by a Polynomial")
        if not e.label.is_odd:
            raise ValueError(f"edge {_clip(e.id)} carries an even part; only odd polynomials converge")
    return _read_reference(g)


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
    w, x = kernels.w_table, kernels.x_table
    return {(r, z, c): w[r, z] * x[z, c] * first[r, c] for z in range(len(kernels.measures[0])) for r, c in first}


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
    chaos = {}
    for rc, q in kernels.k2.items():
        weights = itertools.accumulate(range(1, len(derivs)), lambda w, k: w * q / k, initial=Fraction(1))  # q^k/k!
        chaos[rc] = [w * a[rc] * b[rc] if a[rc] and b[rc] else Fraction(0) for w, (a, b) in zip(weights, derivs)]
    lin = {rc: terms[1] for rc, terms in chaos.items()}
    per = {rc: sum(terms[:1] + terms[2:]) for rc, terms in chaos.items()}
    s1, s2 = _star_table(h1, kernels), _star_table(h2, kernels)
    star_sum = {(r, z, c): t * s2[r, z, c] + per[r, c] for (r, z, c), t in s1.items()}
    return {"pw": kernels.expect(h1 * h2), "lin": lin, "per": per, "sum": star_sum}


def _pseudo_cacti(reference: Reference):
    """Every split quotient that is a pseudo-cactus, in ``split_partitions`` order, from the graph's :func:`_read_reference` view.

    One walk over restricted-growth labels, colour 1 outermost, then colour
    2; the quotient vertices are the colour-1 blocks, then the colour-2
    blocks.  Each colour-2 vertex joins a block and adds its edges to a copy
    of the prefix's quotient through :func:`graphs.join_edge`.  An edge that
    puts an edge on two cycles cuts the prefix, since later vertices only
    add vertices and edges.

    Yields (colour-1 labels, colour-2 labels, vertex count, colour-1 block
    count, edge -> (source, target), cut edges, cycles as (vertices, edges)
    in walking order, edge i joining vertex i to the next).
    """
    targets, sources, ranks = reference
    out_edges: list[list] = [[] for _ in sources]
    for k, (t, s) in enumerate(ranks):
        out_edges[s].append((k, t))
    labels2 = [0] * len(sources)

    def walk(i: int, n_blocks: int, adj: list[list], cycles: list):
        if i == len(sources):
            ends = [(m1 + labels2[s], labels1[t]) for t, s in ranks]
            cut_edges = [k for k in range(len(ranks)) if all(k not in es for _, es in cycles)]
            yield labels1, tuple(labels2), m1 + n_blocks, m1, ends, cut_edges, cycles
            return
        for blk in range(n_blocks + 1):
            adj2, cycles2 = [list(x) for x in adj], list(cycles)
            if not any(join_edge(adj2, cycles2, k, m1 + blk, labels1[t]) for k, t in out_edges[i]):
                labels2[i] = blk
                yield from walk(i + 1, n_blocks + (blk == n_blocks), adj2, cycles2)

    for labels1 in restricted_growth_strings(len(targets)):
        m1 = max(labels1, default=-1) + 1
        yield from walk(0, 0, [[] for _ in range(m1 + len(sources))], [])


def _is_pseudo_cactus(reference: Reference, targets: Sequence[int], sources: Sequence[int]) -> bool:
    """Whether :func:`_pseudo_cacti` lists this label pair: its edges, joined by source then index (``join_edge``), put none on two cycles."""
    m1, edges = max(targets, default=-1) + 1, sorted((s, k, t) for k, (t, s) in enumerate(reference[2]))
    adj, cycles = [[] for _ in range(m1 + len(sources))], []
    return not any(join_edge(adj, cycles, k, m1 + sources[s], targets[t]) for s, k, t in edges)


def _class_key(leaf: tuple, label_id: list[int], intern: dict) -> int:
    """The isomorphism class of a pseudo-cactus quotient, as an interned int.

    AHU on the block-cut tree: a vertex hanging from one of its blocks (or
    from none, at a root) reads as its colour and the sorted forms of its
    other blocks; a block entered at a vertex reads as its edge labels and
    the forms of its other vertices in walking order, a cycle in the lesser
    of its two directions.  Equal forms get equal ints from ``intern`` (one
    per call); the class is the least form over the roots on the most
    blocks.  The colours fix the edge directions.
    """
    _, _, n_vertices, m1, ends, cut_edges, cycles = leaf
    blocks = [(ends[k], (k,)) for k in cut_edges] + cycles
    at = [[b for b, (verts, _) in enumerate(blocks) if v in verts] for v in range(n_vertices)]

    @cache
    def vertex(v: int, via: int | None) -> int:
        return intern.setdefault((v >= m1, tuple(sorted(block(b, v) for b in at[v] if b != via))), len(intern))

    @cache
    def block(b: int, v: int) -> tuple:
        verts, edges = blocks[b]
        i = verts.index(v)
        if len(edges) == 1:
            return ((label_id[edges[0]], vertex(verts[1 - i], b)),)
        labels = [label_id[k] for k in edges[i:] + edges[:i]]  # edge j joins the j-th and the next vertex from v on
        ahead = [vertex(u, b) for u in verts[i + 1 :] + verts[:i]] + [-1]
        return min(tuple(zip(labels, ahead)), tuple(zip(labels[::-1], ahead[-2::-1] + [-1])))

    most = max(map(len, at))
    return min(vertex(v, None) for v in range(n_vertices) if len(at[v]) == most)


def _quotient_values(labels: list, leaf: tuple, kernels: CellKernels, params: LimitParams) -> tuple[Fraction, ...]:
    """The five rule values of one pseudo-cactus quotient (edge ``labels``), in ``RULES`` order.

    A cut edge offers its table under pw, B and sum; a 2-cycle under pw,
    lin, per and sum (under sum over a centre of its own); a longer cycle
    its star under pw, lin and sum.  A rule that some component does not
    offer gets 0, any other the eliminated product of the tables, times psi0
    per cycle and psi1, psi2 per quotient vertex of colour 1, 2.
    """
    _, _, n_vertices, m1, ends, cut_edges, cycles = leaf
    measures, psi, m3 = kernels.measures, params.psi, params.m3_w * params.m3_x / 6
    domains = {v: measures[1 if v < m1 else 2] for v in range(n_vertices)}
    # rules offered one list share it: equal factor lists are the same objects
    components = [
        dict.fromkeys(("pw", "B", "sum"), [(ends[k][::-1], kernels.deformation(labels[k], m3))]) for k in cut_edges
    ]
    for _, edges in cycles:
        centre = len(domains)
        domains[centre] = measures[0]
        if len(edges) == 2:
            (src, dst), tables = ends[edges[0]], _two_cycle_tables(*(labels[k] for k in sorted(edges)), kernels)
            components.append({rule: [((dst, src), t)] for rule, t in tables.items()})
            components[-1]["sum"] = [((dst, centre, src), tables["sum"])]
        else:
            factors = [((ends[k][1], centre, ends[k][0]), _star_table(labels[k], kernels)) for k in edges]
            components.append(dict.fromkeys(("pw", "lin", "sum"), factors))
    scale = psi[0] ** len(cycles) * psi[1] ** m1 * psi[2] ** (n_vertices - m1)
    values, eliminated = dict.fromkeys(RULES, Fraction(0)), {}
    for rule in (rule for rule in RULES if all(rule in comp for comp in components)):
        if (key := tuple(id(comp[rule]) for comp in components)) not in eliminated:
            factors = [f for comp in components for f in comp[rule]]
            used = {v for vars_, _ in factors for v in vars_}
            eliminated[key] = scale * _eliminate({v: m for v, m in domains.items() if v in used}, factors)
        values[rule] = eliminated[key]
    return tuple(values.values())


def limit_values(g: TestGraph, params: LimitParams) -> LimitValues:
    """All five exact limits of ``g`` from one walk over its pseudo-cactus split quotients.

    Values are computed once per isomorphism class, in a memo local to this
    call; ``breakdown`` lists the quotients in ``split_partitions`` order.
    """
    reference = _validate_reference(g)
    kernels = _limit_kernels(params)
    labels = [e.label for e in g.edges]
    label_id = [labels.index(h) for h in labels]
    intern, classes, totals, breakdown = {}, {}, [Fraction(0)] * len(RULES), []
    for leaf in _pseudo_cacti(reference):
        key = _class_key(leaf, label_id, intern)
        if key not in classes:
            classes[key] = _quotient_values(labels, leaf, kernels, params)
        values = classes[key]
        totals = [t + v for t, v in zip(totals, values)]
        if values[0]:
            partition = SetPartition.from_labels(len(g.vertices), zip(reference[:2], leaf[:2]))
            breakdown.append(QuotientTerm(partition, values[0]))
    return LimitValues(*totals, breakdown=tuple(breakdown))


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
    """Outcome of the exhaustive exponent scan of one reference graph.

    ``violations`` lists the exponent-zero partitions whose reference pair the
    limit walk's rule (``_is_pseudo_cactus``) refuses: not a pseudo-cactus.
    """

    n_partitions: int
    n_supported: int
    max_eta: Fraction | None
    eta_zero_partitions: Sequence[SetPartition]
    pseudo_cactus_ok: bool
    violations: list[SetPartition]


def _scan_splits(reference: Reference, niches: list[int], offset: int) -> tuple[int, int, dict]:
    """Walk the split partitions of the auxiliary graph with centered support, from the reference's :func:`_read_reference` view.

    Edge e has a niche of ``niches[e]`` internal vertices, each with a w-edge into e's target and an x-edge from
    e's source.  Under each pair of reference partitions one recursion assigns the internal labels in niche order.
    An internal block is one int code with 2 bits per slot (a target block for w, a source block for x) holding its
    group multiplicity capped at 2: the support filter only tells 0, 1 and more apart.  A prefix is cut once either
    singleton count exceeds the vertices still unassigned, or once a slot's last niche vertex leaves a 1 there; a 2
    there is then cleared.  The position and the sorted codes fix everything below a state, so a vertex joins one
    block per distinct code, weighted by the blocks that carry it, or a new one, and each state is walked once per
    pair: its count of supported leaves, a bitmask of their internal block counts and its count of leaves of
    ``offset`` blocks in all (exponent zero).  More than ``MAX_SCAN_STATES`` states in all is a ValueError.  Returns
    the count, the largest block count (-1 if none) and, keyed by (targets, sources), the exponent-zero count and
    the walk (slots, dead slots, exponent-zero block count, memo) of each pair that has one.
    """
    target_positions, source_positions, ranks = reference
    ends = [ts for ts, n in zip(ranks, niches) for _ in range(n)]  # (target, source) rank per niche vertex
    n0, n_states, n_supported, max_blocks, roots = len(ends), 0, 0, -1, {}

    def walk(i: int, codes: tuple[int, ...], ws: int, xs: int) -> tuple[int, int, int]:
        nonlocal n_states
        count = mask = n_zero = 0
        (sw, sx), d, cut, prev = slots[i], dead[i], n0 - i, -1
        for j in range(len(codes) + 1):  # each distinct code once (codes are sorted), then a new block
            c = codes[j] if j < len(codes) else 0
            if j < len(codes) and c == prev:
                continue
            mw, mx, prev = c >> sw & 3, c >> sx & 3, c
            ws2, xs2 = ws + (mw == 0) - (mw == 1), xs + (mx == 0) - (mx == 1)
            if ws2 >= cut or xs2 >= cut:
                continue
            if cut == 1:  # the last vertex, with no singleton left: every slot is done and every code 0
                below = 1, 1 << len(codes), int(len(codes) == zero_blocks)
            else:
                new = [*codes[:j], c + ((mw < 2) << sw) + ((mx < 2) << sx), *codes[j + 1 :]]
                if d and d & reduce(or_, new):
                    continue
                new = sorted([b & ~(3 * d) for b in new]) if d else sorted(new)
                below = memo.get((i + 1, key := tuple(new))) or walk(i + 1, key, ws2, xs2)
            weight = codes.count(c) if j < len(codes) else 1
            count, mask, n_zero = count + weight * below[0], mask | below[1], n_zero + weight * below[2]
        if (n_states := n_states + 1) > MAX_SCAN_STATES:
            raise ValueError(f"scan would walk more than {MAX_SCAN_STATES} states")
        memo[i, codes] = out = count, mask, n_zero
        return out

    for targets in restricted_growth_strings(len(target_positions)):
        for sources in restricted_growth_strings(len(source_positions)):
            slots = [(2 * targets[t], 2 * (len(targets) + sources[s])) for t, s in ends]  # bit offsets of the w and x slot
            last = {slot: i for i, pair in enumerate(slots) for slot in pair}
            dead = [sum(1 << s for s in pair if last[s] == i) for i, pair in enumerate(slots)]  # low bits of the slots done at i
            outer = max(targets, default=-1) + max(sources, default=-1) + 2  # the target and source blocks
            memo, zero_blocks = {}, offset - outer  # the internal block count of an exponent-zero leaf
            count, mask, n_zero = walk(0, (), 0, 0) if n0 else (1, 1, int(zero_blocks == 0))
            n_supported += count
            max_blocks = max(max_blocks, mask.bit_length() - 1 + outer if count else -1)
            if n_zero:
                roots[targets, sources] = n_zero, slots, dead, zero_blocks, memo
    return n_supported, max_blocks, roots


def _zero_labels(roots: dict) -> list[tuple[tuple[int, ...], ...]]:
    """The (internal, targets, sources) labels of every exponent-zero leaf of :func:`_scan_splits`'s ``roots``.

    Each pair's walk is repeated on the real labels, entering only the states whose memo entry counts such a leaf.
    """
    out = []
    for pair, (_, slots, dead, zero_blocks, memo) in roots.items():
        stack = [((), [], 0, 0)]
        while stack:
            labels, codes, ws, xs = stack.pop()
            if (i := len(labels)) == len(slots):
                out.append((labels, *pair))
                continue
            (sw, sx), d, cut = slots[i], dead[i], len(slots) - i
            for j in range(len(codes) + 1):
                mw, mx = (c := codes[j] if j < len(codes) else 0) >> sw & 3, c >> sx & 3
                ws2, xs2 = ws + (mw == 0) - (mw == 1), xs + (mx == 0) - (mx == 1)
                new = [*codes[:j], c + ((mw < 2) << sw) + ((mx < 2) << sx), *codes[j + 1 :]]
                if ws2 < cut and xs2 < cut and not d & reduce(or_, new):
                    new = [b & ~(3 * d) for b in new]
                    if len(new) == zero_blocks if cut == 1 else memo[i + 1, tuple(sorted(new))][2]:
                        stack.append((labels + (j,), new, ws2, xs2))
    return out


class _ScanLeaves(Sequence):
    """The exponent-zero partitions of :func:`_scan_splits`'s ``roots``, in ``split_partitions`` order.

    Counted from the roots.  When one is first read, all are listed by one :func:`_zero_labels`, one sort and one
    ``SetPartition.from_labels`` per leaf on the (niche, target, source) ``positions``.  Equal to, and printed as, their list.
    """

    def __init__(self, roots: dict, positions: tuple[Sequence[int], ...]) -> None:
        self.roots, self._positions, self._leaves = roots, positions, None

    def __len__(self) -> int:
        return sum(root[0] for root in self.roots.values())

    def __getitem__(self, i: int | slice):
        if self._leaves is None:
            size = sum(map(len, self._positions))
            self._leaves = [SetPartition.from_labels(size, zip(self._positions, z)) for z in sorted(_zero_labels(self.roots))]
        return self._leaves[i]

    def __eq__(self, other: object) -> bool:
        return len(self) == len(other) and all(a == b for a, b in zip(self, other)) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _eta_offset(ref: TestGraph) -> int:
    """1 + (|E| + sum_e n(e))/2, an integer for odd labels: a quotient's exponent is its block count minus this."""
    return 1 + (len(ref.edges) + sum(e.label for e in ref.edges)) // 2


def eta_support_scan(ref: TestGraph, max_label: int = 5) -> EtaScanReport:
    """Scan every split quotient of the auxiliary graph for the size exponent.

    Quotients failing the centered-entry support filter (some w- or x-group
    of multiplicity one) are skipped.  The claim under test: the exponent is
    never positive, and every exponent-zero quotient restricts to a
    reference partition that the limit walk (``_pseudo_cacti``) lists, that
    is to a pseudo-cactus.  The graph must pass ``_read_reference``, read
    once for the walk and the test, and its labels be odd ints, not bools
    (even niches break the parity arguments; their traces diverge); a walk
    past ``MAX_SCAN_STATES`` states is a ValueError.

    ``n_partitions`` is the Bell-number count of split partitions, not the
    number that the pruned walk (``_scan_splits``) visits.  The walk gives
    the supported count, the largest block count (the exponent plus
    ``_eta_offset``) and the exponent-zero count per reference pair; only
    those pairs are put to ``join_edge``'s rule (``_is_pseudo_cactus``).  Only
    ``violations`` is built at once, from the pairs that fail it;
    ``eta_zero_partitions`` (:class:`_ScanLeaves`) builds all leaves when first read.
    """
    if max_label > 5:
        raise ValueError("scan guarded at labels <= 5")
    for e in ref.edges:
        if isinstance(e.label, bool) or not isinstance(e.label, int) or e.label < 1 or e.label > max_label:
            raise ValueError(f"edge {_clip(e.id)} needs an integer label in 1..{max_label}")
        if e.label % 2 == 0:
            raise ValueError("the exponent bound holds for odd labels only")
    targets, sources, _ = reference = _read_reference(ref)
    niches = [e.label for e in ref.edges]
    n_ref, n0 = len(ref.vertices), sum(niches)
    offset = _eta_offset(ref)
    n_supported, max_blocks, roots = _scan_splits(reference, niches, offset)
    positions = (range(n_ref + 1, n_ref + n0 + 1), targets, sources)
    failing = {pair: root for pair, root in roots.items() if not _is_pseudo_cactus(reference, *pair)}
    violations = list(_ScanLeaves(failing, positions))
    return EtaScanReport(
        n_partitions=bell_number(n0) * bell_number(len(targets)) * bell_number(len(sources)),
        n_supported=n_supported,
        max_eta=Fraction(max_blocks - offset) if n_supported else None,
        eta_zero_partitions=_ScanLeaves(roots, positions),
        pseudo_cactus_ok=not violations,
        violations=violations,
    )
