"""Set partitions and integer partitions with exact counting.

Set partitions live on ground sets {1..n} in canonical form (blocks sorted by
least element, elements sorted inside blocks), so equality and hashing are
structural.  Enumeration uses restricted-growth strings, which yields the
canonical order for free.  A hard cap keeps accidental Bell-number blowups
out of interactive use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

#: Enumeration guard: Bell(12) is about 4.2 million.
MAX_ENUM_SIZE = 12


class PartitionSizeError(ValueError):
    """Raised when an enumeration or count would exceed the size guard."""


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..ground_size} into disjoint nonempty blocks."""

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(ground_size: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [x for b in canon for x in b]
        if sorted(seen) != list(range(1, ground_size + 1)):
            raise ValueError("blocks must partition {1..n} exactly")
        return SetPartition(ground_size, canon)

    @staticmethod
    def singletons(n: int) -> "SetPartition":
        return SetPartition(n, tuple((i,) for i in range(1, n + 1)))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self) -> dict[int, int]:
        """Element -> 0-based index of its block in canonical order."""
        out: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                out[x] = i
        return out

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    @staticmethod
    def from_json(ground_size: int, data: Sequence[Sequence[int]]) -> "SetPartition":
        return SetPartition.from_blocks(ground_size, data)


@dataclass(frozen=True)
class IntegerPartition:
    """Non-increasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be >= 1")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be non-increasing")

    @staticmethod
    def of(parts: Iterable[int]) -> "IntegerPartition":
        return IntegerPartition(tuple(sorted(parts, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)


def enumerate_set_partitions(n: int) -> Iterator[SetPartition]:
    """All Bell(n) partitions of {1..n}, canonical (restricted-growth) order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_ENUM_SIZE:
        raise PartitionSizeError(f"refusing to enumerate partitions of {n} > {MAX_ENUM_SIZE} elements")
    if n == 0:
        yield SetPartition(0, ())
        return
    for labels in restricted_growth_strings(n):
        k = max(labels) + 1
        blocks: list[list[int]] = [[] for _ in range(k)]
        for i, lab in enumerate(labels):
            blocks[lab].append(i + 1)
        yield SetPartition(n, tuple(tuple(b) for b in blocks))


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """RGS of length n: a[0]=0 and a[i] <= 1 + max(a[:i])."""
    labels = [0] * n
    maxes = [0] * n

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(labels)
            return
        top = maxes[i - 1] if i > 0 else -1
        for v in range(top + 2):
            labels[i] = v
            maxes[i] = max(top, v)
            yield from rec(i + 1)

    yield from rec(0)


def kernel(indices: Sequence[int]) -> SetPartition:
    """Positions p, q of the tuple share a block iff indices[p] == indices[q]."""
    groups: dict[object, list[int]] = {}
    for pos, val in enumerate(indices, start=1):
        groups.setdefault(val, []).append(pos)
    return SetPartition.from_blocks(len(indices), groups.values())


def type_of(pi: SetPartition) -> IntegerPartition:
    """Non-increasing sequence of block sizes."""
    return IntegerPartition.of(len(b) for b in pi.blocks)


def count_of_type(lam: IntegerPartition) -> int:
    """Number of set partitions of [n] with block sizes lam, n = lam.total.

    n! / (prod_i parts_i! * prod_j mult_j!) where mult_j counts repeated part
    sizes.  Guarded at the same size as enumeration so the two stay testable
    against each other.
    """
    n = lam.total
    if n > MAX_ENUM_SIZE:
        raise PartitionSizeError(f"count_of_type guarded at total <= {MAX_ENUM_SIZE}")
    denom = 1
    for p in lam.parts:
        denom *= math.factorial(p)
    mult: dict[int, int] = {}
    for p in lam.parts:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        denom *= math.factorial(m)
    count = Fraction(math.factorial(n), denom)
    assert count.denominator == 1
    return int(count)


def pair_partitions(n: int) -> int:
    """Number of pair partitions of [n]: (n-1)!! for even n, else 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return 0
    out = 1
    k = n - 1
    while k > 1:
        out *= k
        k -= 2
    return out


@lru_cache(maxsize=None)
def integer_partitions(n: int) -> tuple[IntegerPartition, ...]:
    """All integer partitions of n, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[IntegerPartition] = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(IntegerPartition(tuple(acc)))
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


def bell_number(n: int) -> int:
    """Bell(n) via the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
