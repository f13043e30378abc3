"""Partitions of a finite ambient set, standing in for commutative subalgebras.

A partition P of the ambient set corresponds to the unital subalgebra S_P of
functions constant on its blocks; coarser partition means smaller algebra.
All lattice structure on subalgebras is computed here:

* ``p | q``  (common refinement)  corresponds to the generated algebra S_p v S_q,
* ``p & q``  (overlap join)       corresponds to the intersection S_p n S_q,
* ``p <= q`` (p coarser than q)   corresponds to the inclusion S_p <= S_q.

Partitions are immutable, hashable and kept in canonical form: blocks sorted
by minimal element, elements ascending inside a block.  The canonical form is
the ordering and hashing key for every poset built on top of this module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import Immutable, InputError


class AmbientSet(Immutable):
    """An ordered finite set of distinct point labels."""

    __slots__ = ("points", "index", "_hash")

    def __init__(self, points: Iterable[str]):
        pts = tuple(points)
        if not pts:
            raise InputError("ambient set must be nonempty")
        if any(not isinstance(p, str) or not p for p in pts):
            raise InputError("ambient point labels must be nonempty strings")
        bad = [p for p in pts if any(ch in p for ch in "{},|")]
        if bad:
            raise InputError(f"point labels may not contain '{{', '}}', ',' or '|': {bad}")
        if len(set(pts)) != len(pts):
            raise InputError(f"ambient point labels must be distinct: {pts}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "index", {p: i for i, p in enumerate(pts)})
        object.__setattr__(self, "_hash", hash(pts))

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, AmbientSet) and self.points == other.points

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AmbientSet({list(self.points)!r})"


def _canonical_rgs(labels: Sequence) -> tuple[int, ...]:
    """Relabel an arbitrary point->class assignment by order of first occurrence."""
    seen: dict = {}
    return tuple([seen.setdefault(lab, len(seen)) for lab in labels])


def _blocks_from_rgs(rgs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    nblocks = max(rgs) + 1 if rgs else 0
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for i, b in enumerate(rgs):
        blocks[b].append(i)
    return tuple(tuple(b) for b in blocks)


def _fill(part: "Partition", ambient: AmbientSet, rgs: tuple[int, ...]) -> None:
    object.__setattr__(part, "ambient", ambient)
    object.__setattr__(part, "rgs", rgs)
    object.__setattr__(part, "blocks", _blocks_from_rgs(rgs))
    object.__setattr__(part, "_hash", hash((ambient, rgs)))


class Partition(Immutable):
    """A partition of an ambient set in canonical form."""

    __slots__ = ("ambient", "rgs", "blocks", "_hash", "_str")

    def __init__(self, ambient: AmbientSet, rgs: Sequence[int]):
        rgs = _canonical_rgs(tuple(rgs))
        if len(rgs) != len(ambient):
            raise InputError("partition must assign a block to every ambient point")
        _fill(self, ambient, rgs)

    @classmethod
    def _canonical(cls, ambient: AmbientSet, rgs: tuple[int, ...]) -> "Partition":
        """Trusted constructor: rgs is already a restricted-growth string with
        one entry per ambient point, so it is neither relabelled nor checked."""
        part = object.__new__(cls)
        _fill(part, ambient, rgs)
        return part

    @classmethod
    def from_blocks(cls, ambient: AmbientSet, blocks: Iterable[Iterable[str]]) -> "Partition":
        assignment: list[int | None] = [None] * len(ambient)
        for b, block in enumerate(blocks):
            block = tuple(block)
            if not block:
                raise InputError("partition blocks must be nonempty")
            for label in block:
                if label not in ambient.index:
                    raise InputError(f"unknown point label {label!r}")
                i = ambient.index[label]
                if assignment[i] is not None:
                    raise InputError(f"point {label!r} occurs in two blocks")
                assignment[i] = b
        missing = [ambient.points[i] for i, b in enumerate(assignment) if b is None]
        if missing:
            raise InputError(f"partition misses points {missing}")
        return cls(ambient, assignment)  # type: ignore[arg-type]

    @classmethod
    def trivial(cls, ambient: AmbientSet) -> "Partition":
        """One block: the scalar subalgebra C*1."""
        return cls(ambient, (0,) * len(ambient))

    @classmethod
    def discrete(cls, ambient: AmbientSet) -> "Partition":
        """All singletons: the full function algebra on the ambient set."""
        return cls(ambient, tuple(range(len(ambient))))

    # -- structure -----------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Also the linear dimension of the corresponding subalgebra."""
        return len(self.blocks)

    def block_of(self, point: int) -> int:
        return self.rgs[point]

    def block_label(self, index: int) -> str:
        pts = self.ambient.points
        return "{" + ",".join(pts[i] for i in self.blocks[index]) + "}"

    def block_labels(self) -> tuple[str, ...]:
        return tuple(map(self.block_label, range(self.num_blocks)))

    def block_points(self) -> tuple[tuple[str, ...], ...]:
        pts = self.ambient.points
        return tuple(tuple(pts[i] for i in b) for b in self.blocks)

    def to_json(self) -> list[list[str]]:
        return [list(b) for b in self.block_points()]

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.ambient == other.ambient
            and self.rgs == other.rgs
        )

    def __hash__(self):
        return self._hash

    def __le__(self, other):
        """Subalgebra inclusion S_self <= S_other, i.e. self coarser than other."""
        return is_coarser(self, other)

    def __lt__(self, other):
        return self != other and is_coarser(self, other)

    def __or__(self, other):
        return common_refinement(self, other)

    def __and__(self, other):
        return overlap_join(self, other)

    def __str__(self):
        if not hasattr(self, "_str"):  # rendered once, on first use
            object.__setattr__(self, "_str", "".join(self.block_labels()))
        return self._str

    def __repr__(self):
        return f"Partition({self})"


def _check_same_ambient(p: Partition, q: Partition):
    if p.ambient != q.ambient:
        raise InputError(
            f"partitions live over different ambient sets: "
            f"{p.ambient.points} vs {q.ambient.points}"
        )


@lru_cache(maxsize=None)
def common_refinement(p: Partition, q: Partition) -> Partition:
    """The coarsest partition refining both: blocks are nonempty p-block/q-block
    intersections.  Corresponds to the generated subalgebra S_p v S_q."""
    _check_same_ambient(p, q)
    return Partition._canonical(p.ambient, _canonical_rgs(tuple(zip(p.rgs, q.rgs))))


@lru_cache(maxsize=None)
def overlap_join(p: Partition, q: Partition) -> Partition:
    """The finest partition coarser than both: connected components of the
    bipartite block-overlap graph.  Corresponds to the intersection S_p n S_q."""
    _check_same_ambient(p, q)
    return Partition._canonical(p.ambient, _overlap_rgs(p.rgs, q.rgs))


def _overlap_rgs(x: Sequence[int], y: Sequence) -> tuple[int, ...]:
    """The finest grouping of positions that keeps together two positions
    with one x-label or one y-label, labelled by first occurrence; x is a
    restricted-growth string (a partition's, or a block string).  Union-find
    over x's groups, each pointing at a smaller one or at itself, so one
    ascending pass resolves every root."""
    parent = list(range(max(x) + 1))
    first: dict = {}
    for u, v in zip(x, y):
        w = first.setdefault(v, u)
        while parent[u] != u:
            u = parent[u]
        while parent[w] != w:
            w = parent[w]
        if u < w:
            parent[w] = u
        else:
            parent[u] = w
    for g, r in enumerate(parent):
        parent[g] = parent[r]
    return _canonical_rgs([parent[g] for g in x])


@lru_cache(maxsize=None)
def is_coarser(p: Partition, q: Partition) -> bool:
    """True iff every block of q is contained in a block of p (S_p <= S_q)."""
    _check_same_ambient(p, q)
    image: dict[int, int] = {}
    for pb, qb in zip(p.rgs, q.rgs):
        if image.setdefault(qb, pb) != pb:
            return False
    return True


# -- enumeration -------------------------------------------------------------

_BELL_ROW = [1]          # current row of the Bell triangle
_BELL = [1]              # Bell numbers computed so far


def bell_number(n: int) -> int:
    """Bell numbers via the Bell triangle."""
    if n < 0:
        raise InputError("Bell numbers are defined for n >= 0")
    global _BELL_ROW
    while len(_BELL) <= n:
        row = [_BELL_ROW[-1]]
        for x in _BELL_ROW:
            row.append(row[-1] + x)
        _BELL_ROW = row
        _BELL.append(row[0])
    return _BELL[n]


def _set_partition_rgs(k: int) -> Iterator[tuple[int, ...]]:
    """All restricted-growth strings of length k, lexicographically.  The
    last entry runs fastest, so each prefix of length k - 1 is made once and
    extended by every value it admits; the prefix advances as an odometer
    whose digit i may reach 1 + the largest digit before it."""
    if k <= 1:
        yield (0,) * k
        return
    digits, tops = [0] * (k - 1), [0] * (k - 1)  # tops[i] = max(digits[:i + 1])
    while True:
        prefix = tuple(digits)
        yield from [prefix + (v,) for v in range(tops[-1] + 2)]
        i = k - 2
        while i and digits[i] > tops[i - 1]:
            i -= 1
        if not i:
            return
        digits[i] += 1
        top = tops[i] = max(tops[i - 1], digits[i])
        for j in range(i + 1, k - 1):
            digits[j], tops[j] = 0, top


def _rgs_completions(n: int) -> list[list[int]]:
    """D[r][m], the restricted-growth strings' completions of length r once
    m groups are open, for r + m <= n: D[0][m] = 1 and
    D[r][m] = m D[r - 1][m] + D[r - 1][m + 1] (reuse one of the m groups,
    or open group m)."""
    table = [[1] * (n + 1)]
    for _ in range(1, n):
        prev = table[-1]
        table.append([m * prev[m] + prev[m + 1] for m in range(len(prev) - 1)])
    return table


def _rgs_rank(s: Sequence[int], completions: list[list[int]]) -> int | None:
    """The index of s among the restricted-growth strings of length
    n = len(completions), in lexicographic order, or None if s is not one:
    rank(s) = sum over i of s_i D[n - 1 - i][1 + max(s_0 .. s_(i-1))] (the
    max being -1 at i = 0), since each smaller value at i reuses one of the
    groups already open."""
    n = len(completions)
    if len(s) != n:
        return None
    rank = opened = 0
    for i, v in enumerate(s):
        if not 0 <= v <= opened:
            return None
        rank += v * completions[n - 1 - i][opened]
        opened += v == opened
    return rank


class _Memo(dict):
    """A table whose value at a missing key is computed once, on first use."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def iter_coarsenings(p: Partition) -> Iterator[Partition]:
    """The partitions coarser than p, in canonical order, one at a time."""
    ambient, rgs = p.ambient, p.rgs
    # Each string is canonical (a restricted-growth string read through one),
    # and the walk's lexicographic order over p's blocks is canonical order.
    for grouping in _set_partition_rgs(p.num_blocks):
        yield Partition._canonical(ambient, tuple([grouping[b] for b in rgs]))


@lru_cache(maxsize=None)
def coarsenings(p: Partition) -> tuple[Partition, ...]:
    """All partitions coarser than p, i.e. the contexts of S_p, in canonical
    order.  There are exactly Bell(#blocks) of them."""
    return tuple(iter_coarsenings(p))


def all_partitions(ambient: AmbientSet) -> tuple[Partition, ...]:
    """Every partition of the ambient set, in canonical order."""
    return coarsenings(Partition.discrete(ambient))
