"""Shared fixtures: small ambient sets, the two recurring pairs, and
independent oracles used to freeze expected values."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from netsheaf import AmbientSet, Partition, all_partitions

FIXTURES = Path(__file__).parent / "fixtures"


def ambient(n: int) -> AmbientSet:
    return AmbientSet([chr(ord("a") + i) for i in range(n)])


def random_partitions(min_points: int, max_points: int):
    """Hypothesis strategy: a partition of 'a', 'b', ... (between min_points and
    max_points of them) from arbitrary point labels, canonicalised."""

    @st.composite
    def draw_partition(draw):
        n = draw(st.integers(min_points, max_points))
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        return Partition(ambient(n), labels)

    return draw_partition()


@pytest.fixture(scope="session")
def amb4() -> AmbientSet:
    return AmbientSet(["a", "b", "c", "d"])


@pytest.fixture(scope="session")
def square_pair(amb4):
    """The four-point pair: functions of the first / second binary coordinate."""
    a = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    b = Partition.from_blocks(amb4, [["a", "c"], ["b", "d"]])
    return a, b


@pytest.fixture(scope="session")
def amb3() -> AmbientSet:
    return AmbientSet(["0", "1", "2"])


@pytest.fixture(scope="session")
def halves_pair(amb3):
    """Three points, two overlapping halves sharing the middle point."""
    left = Partition.from_blocks(amb3, [["0", "1"], ["2"]])
    right = Partition.from_blocks(amb3, [["0"], ["1", "2"]])
    return left, right


@pytest.fixture(scope="session")
def partitions_by_size():
    """All partitions of ambient sets of sizes 1..5, keyed by size."""
    return {n: all_partitions(ambient(n)) for n in range(1, 6)}


# -- independent oracles -------------------------------------------------------

def oracle_partition_of_relation(amb: AmbientSet, related) -> Partition:
    """Partition from the transitive closure of a symmetric relation on points."""
    n = len(amb)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if related(i, j) and label[i] != label[j]:
                    new = min(label[i], label[j])
                    old = max(label[i], label[j])
                    label = [new if x == old else x for x in label]
                    changed = True
    return Partition(amb, label)


def oracle_join(p: Partition, q: Partition) -> Partition:
    """Functions in the generated algebra separate two points iff some
    generator does: points stay together iff both partitions keep them
    together."""
    return oracle_partition_of_relation(
        p.ambient, lambda i, j: p.rgs[i] == p.rgs[j] and q.rgs[i] == q.rgs[j]
    )


def oracle_meet(p: Partition, q: Partition) -> Partition:
    """Functions constant on both block systems are constant along any chain of
    p-steps and q-steps: transitive closure of the union relation."""
    return oracle_partition_of_relation(
        p.ambient, lambda i, j: p.rgs[i] == p.rgs[j] or q.rgs[i] == q.rgs[j]
    )


def oracle_is_coarser(p: Partition, q: Partition) -> bool:
    """Pairwise: whenever q relates two points, p must relate them."""
    n = len(p.ambient)
    return all(
        p.rgs[i] == p.rgs[j]
        for i in range(n)
        for j in range(n)
        if q.rgs[i] == q.rgs[j]
    )


def oracle_bell(n: int) -> int:
    """Bell numbers by the binomial-sum recurrence (the library uses the
    triangle, so this is an independent route)."""
    from math import comb

    values = [1]
    for m in range(n):
        values.append(sum(comb(m, k) * values[k] for k in range(m + 1)))
    return values[n]


def oracle_all_partitions(amb: AmbientSet) -> set[Partition]:
    """Recursive insertion enumeration, independent of the library's
    restricted-growth-string generator."""
    n = len(amb)

    def rec(k: int):
        if k == 0:
            yield []
            return
        for smaller in rec(k - 1):
            yield smaller + [[k - 1]]
            for i in range(len(smaller)):
                yield smaller[:i] + [smaller[i] + [k - 1]] + smaller[i + 1:]

    return {
        Partition.from_blocks(amb, [[amb.points[i] for i in block] for block in blocks])
        for blocks in rec(n)
    }


def all_pairs_section_monotone(f):
    """The fiber-minimum section, found by comparing every two members of a
    fiber, tested for monotonicity on every pair of target elements; None
    when some fiber is empty or has no minimum."""
    src, tgt = f.source, f.target
    minima = []
    for q in range(len(tgt)):
        fiber = [p for p, t in enumerate(f.table) if t == q]
        least = [p for p in fiber if all(src.leq_idx(p, x) for x in fiber)]
        if not least:
            return None
        minima.append(least[0])
    return all(
        src.leq_idx(minima[q], minima[t])
        for q in range(len(tgt))
        for t in range(len(tgt))
        if tgt.leq_idx(q, t)
    )
