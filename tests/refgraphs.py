"""Exhaustive enumeration of small connected reference graphs.

Shapes are multisets of (source, target) pairs over color-2 sources and
color-1 targets, deduplicated up to class-preserving vertex permutations;
labeled variants fold the labels into the canonical form.
"""

import itertools

from graphs_oracle import is_connected
from pwtraffic.graphs import Edge, TestGraph


def _canonical(pairs, ns, nt, labels):
    best = None
    for ps in itertools.permutations(range(ns)):
        for pt in itertools.permutations(range(nt)):
            form = tuple(sorted((ps[s], pt[t], lab) for (s, t), lab in zip(pairs, labels)))
            if best is None or form < best:
                best = form
    return ns, nt, best


def labeled_reference_graphs(max_edges, label_choices):
    """Yield (name, TestGraph) over connected shapes with <= max_edges edges
    and every assignment of labels, each isomorphism class exactly once.

    Each multiset of edges is walked once, as its sorted edge list: a class's
    first member in the order of all edge lists is sorted, since sorting an
    edge list keeps its class and does not raise it."""
    seen = set()
    for n_edges in range(1, max_edges + 1):
        for ns in range(1, n_edges + 1):
            for nt in range(1, n_edges + 1):
                for pairs in itertools.combinations_with_replacement(
                    itertools.product(range(ns), range(nt)), n_edges
                ):
                    if {s for s, _ in pairs} != set(range(ns)):
                        continue
                    if {t for _, t in pairs} != set(range(nt)):
                        continue
                    vertices = [(("t", j), 1) for j in range(nt)]
                    vertices += [(("s", i), 2) for i in range(ns)]
                    shape = [Edge(k, ("s", s), ("t", t), None) for k, (s, t) in enumerate(pairs)]
                    if not is_connected(TestGraph(vertices, shape)):
                        continue
                    for labels in itertools.product(label_choices, repeat=n_edges):
                        key = _canonical(pairs, ns, nt, labels)
                        if key in seen:
                            continue
                        seen.add(key)
                        edges = [
                            Edge(k, ("s", s), ("t", t), lab)
                            for k, ((s, t), lab) in enumerate(zip(pairs, labels))
                        ]
                        name = f"E{n_edges}_s{ns}t{nt}_" + "-".join(str(k) for k in key[2])
                        yield name, TestGraph(vertices, edges, reference=True)
