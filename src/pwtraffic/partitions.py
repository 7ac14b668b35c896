"""Set partitions.

Set partitions live on ground sets {1..n} in canonical form (blocks sorted by
least element, elements sorted inside blocks), so equality and hashing are
structural.  Enumeration uses restricted-growth strings, which yields the
canonical order for free.  A hard cap keeps accidental Bell-number blowups
out of interactive use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

#: Enumeration guard: Bell(12) is about 4.2 million.
MAX_ENUM_SIZE = 12


class PartitionSizeError(ValueError):
    """Raised when an enumeration would exceed the size guard."""


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
    def from_labels(ground_size: int, classes: Iterable[tuple[Iterable[int], Sequence[int]]]) -> "SetPartition":
        """The partition whose class on each ascending position list has those RGS labels.

        Built in canonical form: each block collects ascending positions, and
        the blocks are ordered by least element.
        """
        blocks = sorted(b for positions, labels in classes for b in label_blocks(positions, labels))
        if sorted(itertools.chain.from_iterable(blocks)) != list(range(1, ground_size + 1)):
            raise ValueError("blocks must partition {1..n} exactly")
        return SetPartition(ground_size, tuple(blocks))  # disjoint blocks sort by their least elements

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


def label_blocks(positions: Iterable[int], labels: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The blocks that the RGS ``labels`` make of the ascending ``positions``, in label order."""
    blocks: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
    for p, lab in zip(positions, labels):
        blocks[lab].append(p)
    return tuple(map(tuple, blocks))


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """RGS of length n: a[0]=0 and a[i] <= 1 + max(a[:i]).

    Guarded at ``MAX_ENUM_SIZE``, checked when the first string is asked for.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_ENUM_SIZE:
        raise PartitionSizeError(f"refusing to enumerate partitions of {n} > {MAX_ENUM_SIZE} elements")
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


@cache
def bell_number(n: int) -> int:
    """Bell(n) via the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
