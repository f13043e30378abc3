"""Finite context posets, monotone maps, and generic adjunction machinery.

The context poset of a partition A is the set of all partitions coarser than
A (equivalently, all unital subalgebras of S_A) ordered by subalgebra
inclusion.  A context's lower covers merge two of its blocks, so a k-block
context has k(k-1)/2 of them, which ``hasse_edges`` sums in closed form,
and the Hasse covers come from one walk over the block strings that
``Contexts`` makes.  The commands read contexts as those strings and their
labels, the fibered product too, and every restriction C n P, for h, the
fibered product, covering stability and the unit-law sweep, comes from one
kernel, ``_restrictions``, which carries C n P down the tree of the
strings' shared prefixes and keeps no memo.  Only a DOT export
(``descent --dot``, ``contexts --dot``) takes the Hasse walk, or builds the
contexts of A v B, of A or of B as Partitions: through
``Contexts.covers()``, or through ``ContextPoset``, which also stores the
order as bitmasks, for the DOT export of a fibered product.

For a generic monotone map between finite posets, ``left_adjoint`` and
``thickening_report`` decide adjoints, unit/counit strictness, coreflectors
and thickenings by exhaustive scans over the order.  The descent map does
not use them: its adjoint is the join, decided in closed form and certified
in ``descent.py``, and these scans are kept as its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Hashable, Iterator, Optional, Sequence

from .errors import Immutable, InputError, InternalConsistencyError, guard
from .partitions import (
    Partition,
    _Memo,
    _set_partition_rgs,
    bell_number,
    coarsenings,
    overlap_join,
)

DEFAULT_MAX_BELL = 115975  # Bell(10)


class FinitePoset(Immutable):
    """An immutable finite poset with canonical element order.

    The order is materialised as bitmask rows: ``up[i]`` has bit j set iff
    element i <= element j.  Reflexivity, antisymmetry and transitivity are
    checked on construction.
    """

    __slots__ = ("elements", "index", "up", "down")

    def __init__(
        self,
        elements: Sequence[Hashable],
        leq: Optional[Callable[[Hashable, Hashable], bool]] = None,
        *,
        up_masks: Optional[Sequence[int]] = None,
    ):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise InputError("poset elements must be distinct")
        index = {e: i for i, e in enumerate(elements)}
        k = len(elements)
        if up_masks is not None:
            up = list(up_masks)
            if len(up) != k:
                raise InputError("up_masks must cover every element")
        else:
            if leq is None:
                raise InputError("a poset needs either a comparison or its masks")
            up = []
            for i in range(k):
                mask = 0
                for j in range(k):
                    if leq(elements[i], elements[j]):
                        mask |= 1 << j
                up.append(mask)
        down = [0] * k
        for i in range(k):
            m = up[i]
            while m:
                j = (m & -m).bit_length() - 1
                down[j] |= 1 << i
                m &= m - 1
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "up", tuple(up))
        object.__setattr__(self, "down", tuple(down))
        self._validate()

    def _validate(self):
        for i in range(len(self.elements)):
            if not (self.up[i] >> i) & 1:
                raise InputError(f"order not reflexive at {self.elements[i]}")
            m = self.up[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if j != i and (self.up[j] >> i) & 1:
                    raise InputError(
                        f"order not antisymmetric at {self.elements[i]}, {self.elements[j]}"
                    )
                if self.up[j] & ~self.up[i]:
                    raise InputError(
                        f"order not transitive at {self.elements[i]} <= {self.elements[j]}"
                    )

    def __len__(self):
        return len(self.elements)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction: pairs (i, j) where j covers i."""
        out = []
        for i in range(len(self.elements)):
            strictly_up = self.up[i] & ~(1 << i)
            m = strictly_up
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                between = strictly_up & self.down[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        return tuple(out)

    def least_of(self, member_mask: int) -> Optional[int]:
        """Index of the least element of the subset given by a bitmask, if any."""
        if not member_mask:
            return None
        m = member_mask
        cand = (m & -m).bit_length() - 1
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if (self.up[j] >> cand) & 1:
                cand = j
        return cand if (self.up[cand] & member_mask) == member_mask else None


def _merge_walk(keys: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
    """Every Hasse cover (i, j), j covering i, of the contexts whose block
    strings, in canonical order, are ``keys = tuple(Contexts(A).strings())``.

    A context's lower covers are exactly the strings that merge two of its
    groups (Knuth, TAOCP 4A 7.2.1.5).  The finer context j is taken by
    decreasing block count, so j comes after all its upper covers."""
    index = {key: i for i, key in enumerate(keys)}
    for j in sorted(range(len(keys)), key=lambda i: -max(keys[i])):
        key = keys[j]
        for b in range(1, max(key) + 1):
            # group b relabelled a, the groups above it shifted down by one
            merged = [v - (v > b) for v in key]
            moved = [t for t, v in enumerate(key) if v == b]
            for a in range(b):
                for t in moved:
                    merged[t] = a
                yield index[tuple(merged)], j


class ContextPoset(FinitePoset):
    """The poset of all contexts (coarsenings) of a partition, bottom = C*1."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: Partition):
        object.__setattr__(self, "algebra", algebra)
        contexts = Contexts(algebra)
        # The walk yields j after all its upper covers, so up[j] = {k : j <= k}
        # is complete when it is OR-ed into j's lower covers.
        up = [1 << i for i in range(len(contexts))]
        for i, j in _merge_walk(tuple(contexts.strings())):
            up[i] |= up[j]
        super().__init__(contexts.elements, up_masks=up)


def block_map(p: Partition, j: Partition) -> tuple[int, ...]:
    """The block of p holding each block of a refinement j: p read over j's blocks."""
    return tuple([p.rgs[block[0]] for block in j.blocks])


class Contexts(Immutable):
    """The contexts of a partition in canonical order: block strings and
    labels made on each call, Partitions only when ``elements`` is read.  No
    order masks are built, and the Hasse covers only for the DOT export.
    Restrictions come from ``_restrictions`` and surjectivity of ring
    components from the descent adjunction's unit, not from a walk here."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: Partition):
        object.__setattr__(self, "algebra", algebra)

    @property
    def elements(self) -> tuple[Partition, ...]:
        """The contexts as Partitions, for the DOT export, the exit-3 dumps
        and `covering_stability`'s violations."""
        return coarsenings(self.algebra)

    def __len__(self):
        return bell_number(self.algebra.num_blocks)

    def strings(self) -> Iterator[tuple[int, ...]]:
        """Each context read at the first point of each block of the algebra: the
        restricted-growth strings in lexicographic order, which is canonical
        order since blocks go by least point (Knuth, TAOCP 4A 7.2.1.5)."""
        return _set_partition_rgs(self.algebra.num_blocks)

    def over(self, j: Partition) -> Iterator[tuple[int, ...]]:
        """Each context read at the first point of each block of a refinement j."""
        blocks = block_map(self.algebra, j)
        return (tuple([s[b] for b in blocks]) for s in self.strings())

    def labels(self) -> Iterator[str]:
        """Each context's label, as str() of its Partition writes it, made
        from its block string: the points of each group of blocks, in point
        order, with the groups in order of least point.  The contexts are
        walked depth first by their shared prefixes (all but the last entry
        of each string), a prefix holding the mask of blocks in each of its
        groups, its parent's with one bit ORed in.  A prefix's group texts
        are read once and each context only replaces the group that its
        last block joins.  A group's text is made once, on first use."""
        names, rgs = self.algebra.ambient.points, self.algebra.rgs
        texts = _Memo(lambda mask: ",".join([x for x, b in zip(names, rgs) if mask >> b & 1]))
        last = 1 << (self.algebra.num_blocks - 1)
        stack = [(1, [])]  # a prefix: the bit of the block after it, its group masks
        while stack:
            bit, head = stack.pop()
            if bit == last:
                groups = [texts[m] for m in head]
                for v, m in enumerate(head):
                    text, groups[v] = groups[v], texts[m | last]
                    yield "{%s}" % "}{".join(groups)
                    groups[v] = text
                yield "{%s}" % "}{".join(groups + [texts[last]])
                continue
            # pushed last to first, so the children pop in lexicographic order
            stack.append((bit << 1, head + [bit]))
            for v in range(len(head) - 1, -1, -1):
                child = head.copy()
                child[v] |= bit
                stack.append((bit << 1, child))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction, in FinitePoset.covers() order."""
        return tuple(sorted(_merge_walk(tuple(self.strings()))))


def _restrictions(blocks: Sequence[int]) -> list[tuple[int, ...]]:
    """C n P for every context C of X, in canonical order, as its block
    string over the blocks of P, a partition coarser than X given by
    `blocks`, the block of P holding each block of X: a `block_map(P, X)`,
    or a context read over X's blocks (`Contexts.over`).

    C n P is the components of P's blocks linked by C's groups.  X's
    contexts are walked depth first down the tree of their shared prefixes
    (Knuth, TAOCP 4A 7.2.1.5), each prefix carrying its own restriction, a
    restricted-growth string over P's blocks in which the blocks that no
    group reaches yet stand alone, and the P-block of one block of each of
    its groups.  Adding X's next block to a group links two labels: the
    higher becomes the lower and every label above it moves down by one,
    and a child whose two labels already agree shares its parent's string."""
    out, leaf = [], len(blocks) - 1

    def walk(depth: int, rest: tuple[int, ...], reps: list[int]) -> None:
        # X's block `depth`, in P-block p, joins each group in turn (the
        # group whose block lies in P-block r), then opens one of its own
        p = blocks[depth]
        q, children = rest[p], []
        for r in reps:
            lo = rest[r]
            if lo == q:
                children.append(rest)
                continue
            lo, hi = (lo, q) if lo < q else (q, lo)
            children.append(tuple([lo if x == hi else x - (x > hi) for x in rest]))
        if depth == leaf:
            out.extend(children)
            out.append(rest)
            return
        for child in children:
            walk(depth + 1, child, reps)
        walk(depth + 1, rest, reps + [p])

    walk(0, tuple(range(max(blocks) + 1)), [])
    return out


def _stirling_row(n: int) -> list[int]:
    """S(n, k) for k = 0..n, by S(m + 1, k) = k S(m, k) + S(m, k - 1)."""
    row = [1]
    for _ in range(n):
        padded = row + [0]
        row = [0] + [k * padded[k] + padded[k - 1] for k in range(1, len(padded))]
    return row


def _comparable_pairs(n: int) -> int:
    """Comparable pairs of the context poset of an n-block algebra: the
    S(n, k) contexts with k blocks have Bell(k) coarsenings each."""
    return sum(s * bell_number(k) for k, s in enumerate(_stirling_row(n)))


def hasse_edges(n: int) -> int:
    """Hasse covers of the context poset of an n-block algebra: the S(n, k)
    contexts with k blocks have one lower cover per two blocks merged."""
    return sum(s * comb(k, 2) for k, s in enumerate(_stirling_row(n)))


def guard_contexts(max_bell: int, *algebras: Partition) -> None:
    """Raise SizeGuardError for the first algebra with more than max_bell
    contexts (Bell(#blocks) of them), before any is enumerated."""
    for a in algebras:
        count = bell_number(a.num_blocks)
        guard(count, max_bell, lambda: (
            f"context poset of {a} would have Bell({a.num_blocks}) = {count} "
            f"elements and {_comparable_pairs(a.num_blocks)} comparable pairs"
        ))


def enumerate_contexts(a: Partition, max_bell: int = DEFAULT_MAX_BELL) -> ContextPoset:
    """All unital subalgebras of S_a as a poset; exactly Bell(#blocks) of them."""
    guard_contexts(max_bell, a)
    return ContextPoset(a)


def restrict_context(c: Partition, a: Partition) -> Partition:
    """The context C n S_a: subalgebra intersection, i.e. the overlap join."""
    return overlap_join(c, a)


def _order_violation(
    source: FinitePoset, target: FinitePoset, table: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The first comparable pair i <= j of source whose images table[i],
    table[j] are not ordered in target; None when the table is monotone.
    Only the comparable pairs, read off the up masks, are visited."""
    for i in range(len(source)):
        m = source.up[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if not target.leq_idx(table[i], table[j]):
                return i, j
    return None


class MonotoneMap(Immutable):
    """An order-preserving map between finite posets, stored as an index table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FinitePoset, target: FinitePoset, table: Sequence[int]):
        table = tuple(table)
        if len(table) != len(source):
            raise InputError("monotone map table must cover every source element")
        violation = _order_violation(source, target, table)
        if violation is not None:
            i, j = violation
            raise InputError(
                f"map is not order-preserving: {source.elements[i]} <= "
                f"{source.elements[j]} but images are not ordered"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "table", table)

    @classmethod
    def certified(cls, source, target, table: Sequence[int]) -> "MonotoneMap":
        """A map whose monotonicity the caller has already proved, between
        any posets with ``elements`` and ``covers()``; nothing is re-checked."""
        f = object.__new__(cls)
        for name, value in (("source", source), ("target", target), ("table", tuple(table))):
            object.__setattr__(f, name, value)
        return f

    def is_surjective(self) -> bool:
        return len(set(self.table)) == len(self.target)

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.source)


@dataclass(frozen=True)
class AdjunctionReport:
    """Everything the generic left-adjoint computation found out about a map f.

    ``unit_strict[s]`` records g(f(s)) != s per source element and
    ``counit_strict[t]`` records f(g(t)) != t per target element (both None
    when no adjoint exists); f is a coreflector iff its left adjoint is also
    a right inverse, i.e. no counit strictness remains.
    """

    adjoint_exists: bool
    adjoint: Optional[MonotoneMap]
    unit_strict: Optional[tuple[bool, ...]]
    counit_strict: Optional[tuple[bool, ...]]
    is_coreflector: bool
    is_iso: bool
    missing_least: tuple[int, ...]  # target indices whose upper preimage has no least element


def left_adjoint(f: MonotoneMap) -> AdjunctionReport:
    """Generic finite-poset left adjoint: for each target element q, the least
    element of {p : q <= f(p)}, when every such least element exists."""
    src, tgt = f.source, f.target
    upper_preimage = [0] * len(tgt)
    for i, ti in enumerate(f.table):
        m = tgt.down[ti]  # all q <= f(p_i)
        while m:
            q = (m & -m).bit_length() - 1
            m &= m - 1
            upper_preimage[q] |= 1 << i
    adjoint_table = [src.least_of(m) for m in upper_preimage]
    missing = [q for q, least in enumerate(adjoint_table) if least is None]
    if missing:
        return AdjunctionReport(
            adjoint_exists=False,
            adjoint=None,
            unit_strict=None,
            counit_strict=None,
            is_coreflector=False,
            is_iso=False,
            missing_least=tuple(missing),
        )

    g = MonotoneMap(tgt, src, adjoint_table)  # monotonicity is re-verified here
    _assert_adjunction_law(f, g)
    unit_strict = tuple(g.table[f.table[s]] != s for s in range(len(src)))
    counit_strict = tuple(f.table[g.table[t]] != t for t in range(len(tgt)))
    is_coreflector = not any(counit_strict)
    return AdjunctionReport(
        adjoint_exists=True,
        adjoint=g,
        unit_strict=unit_strict,
        counit_strict=counit_strict,
        is_coreflector=is_coreflector,
        is_iso=is_coreflector and not any(unit_strict),
        missing_least=(),
    )


def _assert_adjunction_law(f: MonotoneMap, g: MonotoneMap):
    src, tgt = f.source, f.target
    for q in range(len(tgt)):
        for p in range(len(src)):
            if src.leq_idx(g.table[q], p) != tgt.leq_idx(q, f.table[p]):
                raise InternalConsistencyError(
                    "computed adjoint violates the adjunction law",
                    dump={
                        "target": str(tgt.elements[q]),
                        "source": str(src.elements[p]),
                        "g(q)": str(src.elements[g.table[q]]),
                        "f(p)": str(tgt.elements[f.table[p]]),
                    },
                )


@dataclass(frozen=True)
class ThickeningReport:
    """Finite-poset reading of an infinitesimal thickening: a surjection all
    of whose fibers have minima, the minima forming a monotone section."""

    surjective: bool
    fiber_has_minimum: tuple[bool, ...]
    section_monotone: Optional[bool]
    overall: bool


def thickening_report(f: MonotoneMap, adjunction: AdjunctionReport) -> ThickeningReport:
    """Decide whether f is a thickening from its fibers alone.

    ``adjunction`` is ``left_adjoint(f)``.  f is a thickening exactly when it
    is a coreflector, and then the fiber-minimum section is its left adjoint:
    the section is checked against that report as an independent second
    route, and any disagreement is a bug.
    """
    src, tgt = f.source, f.target
    fibers = [0] * len(tgt)
    for i, ti in enumerate(f.table):
        fibers[ti] |= 1 << i
    minima = tuple(src.least_of(m) for m in fibers)  # None on an empty fiber
    has_min = tuple(m is not None for m in minima)
    section_monotone: Optional[bool] = None
    if all(has_min):
        section_monotone = _order_violation(tgt, src, minima) is None
    overall = section_monotone is True
    if overall != adjunction.is_coreflector or (
        overall and adjunction.adjoint.table != minima
    ):
        raise InternalConsistencyError(
            "thickening section disagrees with the computed left adjoint",
            dump={
                "section": [None if i is None else str(src.elements[i]) for i in minima],
                "adjoint_exists": adjunction.adjoint_exists,
                "is_coreflector": adjunction.is_coreflector,
                "adjoint": None
                if adjunction.adjoint is None
                else [str(src.elements[i]) for i in adjunction.adjoint.table],
            },
        )
    return ThickeningReport(
        surjective=all(fibers),
        fiber_has_minimum=has_min,
        section_monotone=section_monotone,
        overall=overall,
    )


# -- DOT export ---------------------------------------------------------------

def _node_label(e) -> str:
    if isinstance(e, tuple):
        return "(" + ", ".join(_node_label(x) for x in e) + ")"
    return str(e).replace("\\", "\\\\").replace('"', '\\"')


def _hasse_lines(p, prefix: str, indent: str) -> list[str]:
    lines = [
        f'{indent}{prefix}{i} [label="{_node_label(e)}"];' for i, e in enumerate(p.elements)
    ]
    lines += [f"{indent}{prefix}{i} -> {prefix}{j};" for i, j in p.covers()]
    return lines


def dot_export(obj) -> str:
    """Deterministic DOT text: Hasse diagram of a poset (anything with
    ``elements`` and ``covers()``), or two clustered Hasse diagrams with
    dashed cross-edges for a monotone map."""
    if isinstance(obj, MonotoneMap):
        lines = ["digraph monotone_map {", "  rankdir=BT;", '  node [shape=box, fontsize=10];']
        lines.append("  subgraph cluster_source {")
        lines.append('    label="source";')
        lines += _hasse_lines(obj.source, "s", "    ")
        lines.append("  }")
        lines.append("  subgraph cluster_target {")
        lines.append('    label="target";')
        lines += _hasse_lines(obj.target, "t", "    ")
        lines.append("  }")
        lines += [
            f"  s{i} -> t{j} [style=dashed, constraint=false];"
            for i, j in enumerate(obj.table)
        ]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if hasattr(obj, "covers") and hasattr(obj, "elements"):
        lines = ["digraph poset {", "  rankdir=BT;", '  node [shape=box, fontsize=10];']
        lines += _hasse_lines(obj, "n", "  ")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise InputError(f"cannot export {type(obj).__name__} as DOT")
