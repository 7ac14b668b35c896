"""Reference exponent scan: enumerate every split partition, then filter.

The slow form of ``pwtraffic.limits.eta_support_scan``, kept as a test
oracle.  Every split partition of the auxiliary graph is built as a
``SetPartition``; the support filter regroups its edges (``edge_groups``)
and the exponent comes from ``graphs.eta``, which also runs the w-subgraph
union-find.  The validation and the partition guard are the scan's own.
"""

from __future__ import annotations

from fractions import Fraction

from pwtraffic.graphs import TestGraph, build_auxiliary, classify, eta, has_centered_support, quotient, split_partitions
from pwtraffic.limits import MAX_SCAN_PARTITIONS, EtaScanReport
from pwtraffic.partitions import SetPartition, bell_number, restrict


def eta_support_scan(ref: TestGraph, max_label: int = 5) -> EtaScanReport:
    if max_label > 5:
        raise ValueError("scan guarded at labels <= 5")
    for e in ref.edges:
        if not isinstance(e.label, int) or e.label < 1 or e.label > max_label:
            raise ValueError(f"edge {e.id!r} needs an integer label in 1..{max_label}")
        if e.label % 2 == 0:
            raise ValueError("the exponent bound holds for odd labels only")
    aux = build_auxiliary(ref)

    counts: dict[int, int] = {0: 0, 1: 0, 2: 0}
    for _, c in aux.graph.vertices:
        counts[c] += 1
    size = bell_number(counts[0]) * bell_number(counts[1]) * bell_number(counts[2])
    if size > MAX_SCAN_PARTITIONS:
        raise ValueError(f"scan would enumerate {size} partitions > {MAX_SCAN_PARTITIONS}")

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
