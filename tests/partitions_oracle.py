"""Partition definitions that only the tests use.

The enumeration of every set partition, kernels of index tuples, block
types and their exact counts, integer partitions, restriction to a subset,
the splitness test and the discrete partition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from pwtraffic.partitions import (
    MAX_ENUM_SIZE,
    PartitionSizeError,
    SetPartition,
    restricted_growth_strings,
)


def enumerate_set_partitions(n: int) -> Iterator[SetPartition]:
    """All Bell(n) partitions of {1..n}, canonical (restricted-growth) order."""
    for labels in restricted_growth_strings(n):
        yield SetPartition.from_labels(n, [(range(1, n + 1), labels)])


def singletons(n: int) -> SetPartition:
    return SetPartition(n, tuple((i,) for i in range(1, n + 1)))


def kernel(indices: Sequence[int]) -> SetPartition:
    """Positions p, q of the tuple share a block iff indices[p] == indices[q]."""
    groups: dict[object, list[int]] = {}
    for pos, val in enumerate(indices, start=1):
        groups.setdefault(val, []).append(pos)
    return SetPartition.from_blocks(len(indices), groups.values())


def type_of(pi: SetPartition) -> tuple[int, ...]:
    """Non-increasing tuple of block sizes."""
    return tuple(sorted((len(b) for b in pi.blocks), reverse=True))


def count_of_type(lam: tuple[int, ...]) -> int:
    """Number of set partitions of [n] with block sizes lam, n = sum(lam).

    n! / (prod_i parts_i! * prod_j mult_j!) where mult_j counts repeated part
    sizes.  Guarded at the same size as enumeration so the two stay testable
    against each other.
    """
    n = sum(lam)
    if n > MAX_ENUM_SIZE:
        raise PartitionSizeError(f"count_of_type guarded at total <= {MAX_ENUM_SIZE}")
    denom = 1
    for p in lam:
        denom *= math.factorial(p)
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        denom *= math.factorial(m)
    count = Fraction(math.factorial(n), denom)
    assert count.denominator == 1
    return int(count)


@lru_cache(maxsize=None)
def integer_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All integer partitions of n as non-increasing tuples, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)


def restrict(pi: SetPartition, subset: Iterable[int]) -> SetPartition:
    """Restriction to a subset, relabeled order-preservingly to {1..k}.

    The i-th smallest retained element becomes i.
    """
    kept = sorted(set(subset))
    if any(x < 1 or x > pi.ground_size for x in kept):
        raise ValueError("subset must lie inside the ground set")
    relabel = {x: i + 1 for i, x in enumerate(kept)}
    keep = set(kept)
    blocks = []
    for b in pi.blocks:
        nb = [relabel[x] for x in b if x in keep]
        if nb:
            blocks.append(nb)
    return SetPartition.from_blocks(len(kept), blocks)


def is_split(pi: SetPartition, coloring: Sequence[int]) -> bool:
    """True iff every block is monochromatic under the 1-based coloring."""
    if len(coloring) != pi.ground_size:
        raise ValueError("coloring length must match the ground size")
    for b in pi.blocks:
        colors = {coloring[x - 1] for x in b}
        if len(colors) > 1:
            return False
    return True
