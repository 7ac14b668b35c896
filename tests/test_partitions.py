"""Set- and integer-partition tests with enumeration oracles."""

import pytest

from pwtraffic.hermite import gaussian_moment
from pwtraffic.partitions import (
    PartitionSizeError,
    SetPartition,
    bell_number,
)
from partitions_oracle import count_of_type, enumerate_set_partitions, integer_partitions, is_split, kernel, restrict, singletons, type_of


def bell_oracle(n):
    """Independent Bell-number recursion: B(n+1) = sum C(n,k) B(k)."""
    import math

    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def test_enumeration_counts():
    assert [p.blocks for p in enumerate_set_partitions(1)] == [((1,),)]
    assert sum(1 for _ in enumerate_set_partitions(3)) == 5
    assert sum(1 for _ in enumerate_set_partitions(4)) == 15
    for n in range(9):
        assert sum(1 for _ in enumerate_set_partitions(n)) == bell_oracle(n)
        assert bell_number(n) == bell_oracle(n)


def test_enumeration_unique_and_canonical():
    seen = set()
    for p in enumerate_set_partitions(5):
        assert p not in seen
        seen.add(p)
        firsts = [b[0] for b in p.blocks]
        assert firsts == sorted(firsts)
        for b in p.blocks:
            assert list(b) == sorted(b)


def test_enumeration_guard():
    with pytest.raises(PartitionSizeError):
        list(enumerate_set_partitions(13))


def test_kernel_examples():
    assert kernel((7, 7, 2)).blocks == ((1, 2), (3,))
    assert kernel((1, 2, 3)).blocks == ((1,), (2,), (3,))
    assert kernel((5, 3, 5, 3)).blocks == ((1, 3), (2, 4))


def test_kernel_relabeling_invariance():
    values = (4, 9, 4, 2, 9, 9)
    relabeled = tuple({4: "a", 9: "zz", 2: 0}[v] for v in values)
    assert kernel(values) == kernel(relabeled)


def test_type_of_examples():
    assert type_of(SetPartition.from_blocks(3, [[1, 2], [3]])) == (2, 1)
    assert type_of(singletons(4)) == (1, 1, 1, 1)
    assert type_of(SetPartition.from_blocks(3, [[1, 2, 3]])) == (3,)


def test_count_of_type_examples():
    assert count_of_type((2, 2)) == 3
    assert count_of_type((3, 2)) == 10
    assert count_of_type((1,) * 6) == 1


def test_count_of_type_matches_enumeration():
    for n in range(1, 8):
        by_type = {}
        for p in enumerate_set_partitions(n):
            t = type_of(p)
            by_type[t] = by_type.get(t, 0) + 1
        for lam in integer_partitions(n):
            assert count_of_type(lam) == by_type.get(lam, 0)


def test_count_of_type_sums_to_bell():
    for n in range(1, 11):
        assert sum(count_of_type(lam) for lam in integer_partitions(n)) == bell_oracle(n)


def test_pair_partitions():
    # E[xi^n] counts the pair partitions of [n]
    assert gaussian_moment(2) == 1
    assert gaussian_moment(5) == 0
    # enumeration oracle for n = 4
    count = sum(1 for p in enumerate_set_partitions(4) if type_of(p) == (2, 2))
    assert gaussian_moment(4) == count == 3
    for k in range(1, 7):
        assert gaussian_moment(2 * k) == count_of_type((2,) * k)


def test_restrict_examples():
    pi = SetPartition.from_blocks(3, [[1, 3], [2]])
    assert restrict(pi, [1, 2]).blocks == ((1,), (2,))
    pi2 = SetPartition.from_blocks(3, [[1, 2, 3]])
    assert restrict(pi2, [1, 3]).blocks == ((1, 2),)
    assert restrict(pi, range(1, 4)) == pi


def test_restrict_functorial():
    for pi in enumerate_set_partitions(6):
        mid = restrict(pi, [1, 2, 4, 5, 6])
        # positions of {2, 5, 6} inside the kept set [1,2,4,5,6] are 2, 4, 5
        twice = restrict(mid, [2, 4, 5])
        once = restrict(pi, [2, 5, 6])
        assert twice == once


def test_is_split():
    assert is_split(singletons(4), (0, 1, 2, 0))
    assert not is_split(SetPartition.from_blocks(2, [[1, 2]]), (1, 2))
    assert is_split(SetPartition.from_blocks(3, [[1, 2], [3]]), (0, 0, 1))


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2], [2, 3]])


def test_serialization():
    pi = SetPartition.from_blocks(4, [[4, 3], [2, 1]])
    assert pi.to_json() == [[1, 2], [3, 4]]
    assert SetPartition.from_blocks(4, [[1, 2], [3, 4]]) == pi
