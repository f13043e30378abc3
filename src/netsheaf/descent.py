"""The descent machinery: fibered context products, the map h, ring
components, the sheaf condition, and the covering-relation stability check.

For a pair (A, B) with meet algebra M (contained in both), the descent map

    h : C_{A v B} -> C_A x_M C_B,   C |-> (C n A, C n B)

lands in the poset of context pairs agreeing after restriction to M.  It
always has the join g(C1, C2) = C1 v C2 as its left adjoint: C1 <= A and
C2 <= B give C1 v C2 <= C iff C1 <= C n A and C2 <= C n B.  So h and g are
computed as two tables, every adjunction and thickening verdict is read off
them by equality, and a linear certificate proves g -| h on each input.

The sheaf condition holds iff h is a poset isomorphism and, at every context
C, the multiplication map (C n A) (x)_E (C n B) -> C is an isomorphism, where
E is the amalgam C n M.  Ring components are decided on spectra: by finite
Gelfand duality the amalgamated tensor product of function algebras is the
function algebra on the fibered product of block sets, and the algebra map
is injective iff the spectrum map is surjective and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import NoReturn, Optional, Sequence

from .contexts import (
    DEFAULT_MAX_BELL,
    AdjunctionReport,
    ContextPoset,
    Contexts,
    FinitePoset,
    MonotoneMap,
    ThickeningReport,
    _restrictions,
    block_map,
    guard_contexts,
)
from .errors import Immutable, InputError, InternalConsistencyError, guard
from .independence import AlgebraPair, HierarchyReport, hierarchy_report
from .jsontext import rendered_object
from .partitions import (
    Partition,
    _Memo,
    _canonical_rgs,
    _overlap_rgs,
    _rgs_completions,
    _rgs_rank,
    _set_partition_rgs,
    bell_number,
    common_refinement,
    is_coarser,
    overlap_join,
)

# Bound on |C_{A v B}|*|C_A|*|C_B|, which bounds the covering-stability sweep.
MAX_STABILITY_TRIPLES = 10**6

# Bound on the elements of a fibered context product C_A x_M C_B.  The descent
# map is linear in it, and the product is index pairs into the factors' block
# strings, with no masks: with the guard lifted, on 2 vCPUs (Python 3.11), one
# cold process each, `sheaf_report` took 1.4 s / 50 MB and `check-net --json`
# 2.0 s / 85 MB for 42,294 elements (a full 9-point algebra against a 2-block
# one over the scalars); a product of Partitions took 1.7 s / 74 MB and
# 2.4 s / 109 MB, masked factor posets 18 s and 16 s.  10^4 keeps every
# factor at Bell(8) or less.
MAX_FIBERED_ELEMENTS = 10**4


class FiberedContextProduct(Immutable):
    """Pairs (C1, C2) of contexts with C1 n M = C2 n M, ordered componentwise
    by refinement, held as index pairs (i, j) into the canonical orders of
    the factors, which are plain Contexts.  Each restriction C n M is read
    once (`_restrictions`), as a block string over M's blocks, the one
    labelling that both sides share; `restrictions[i]` keeps it for left
    context i.  Neither the factors nor the product carry order masks, which
    only the DOT export's covers() builds, and no context becomes a
    Partition unless `elements` is read."""

    __slots__ = ("left_poset", "right_poset", "meet", "pairs", "restrictions")

    def __init__(self, left_poset: Contexts, right_poset: Contexts, meet: Partition):
        left_algebra, right_algebra = left_poset.algebra, right_poset.algebra
        if not (is_coarser(meet, left_algebra) and is_coarser(meet, right_algebra)):
            raise InputError(f"meet algebra {meet} is not contained in both members")
        left, right = (_restrictions(f, block_map(meet, f.algebra))
                       for f in (left_poset, right_poset))
        by_restriction: dict[tuple[int, ...], list[int]] = {}
        for j, key in enumerate(right):
            by_restriction.setdefault(key, []).append(j)
        count = sum(len(by_restriction.get(key, ())) for key in left)
        guard(count, MAX_FIBERED_ELEMENTS, lambda: (
            f"fibered context product of {left_algebra} | {right_algebra} over {meet} "
            f"would have {count} elements"
        ))
        # Each left context meets only the right ones it agrees with on M, in
        # canonical order.
        pairs = tuple((i, j) for i, key in enumerate(left) for j in by_restriction.get(key, ()))
        fields = {"left_poset": left_poset, "right_poset": right_poset, "meet": meet,
                  "pairs": pairs, "restrictions": left}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.pairs)

    @property
    def elements(self) -> tuple[tuple[Partition, Partition], ...]:
        """The pairs as Partitions, for the DOT export and the exit-3 dumps."""
        lefts, rights = self.left_poset.elements, self.right_poset.elements
        return tuple([(lefts[i], rights[j]) for i, j in self.pairs])

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction, for the DOT export only: a cover in one
        coordinate can leave the fiber, so the order is materialised here,
        from the factors' context posets."""
        posets = [ContextPoset(f.algebra) for f in (self.left_poset, self.right_poset)]
        above = [_above(p, [e[k] for e in self.pairs]) for k, p in enumerate(posets)]
        up = [above[0][i] & above[1][j] for i, j in self.pairs]
        return FinitePoset(self.pairs, up_masks=up).covers()


def _above(poset: FinitePoset, components: Sequence[int]) -> list[int]:
    """Per element i of a factor poset, the mask of the product positions
    whose component (a factor index, one per position) lies at or above i."""
    bits = [0] * len(poset)
    for pos, c in enumerate(components):
        bits[c] |= 1 << pos
    above = [0] * len(poset)
    for i in range(len(poset)):
        m = poset.up[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            above[i] |= bits[j]
    return above


def fibered_context_product(
    pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL
) -> FiberedContextProduct:
    """C_A x_M C_B, after the Bell guards of both sides.  More than
    MAX_FIBERED_ELEMENTS elements raise SizeGuardError before any context is
    paired."""
    pair.require_partition_engine("the fibered context product")
    guard_contexts(max_bell, pair.left, pair.right)
    return FiberedContextProduct(Contexts(pair.left), Contexts(pair.right), pair.meet_algebra)


@dataclass(frozen=True)
class RingComponent:
    """Injectivity/surjectivity of the multiplication map
    (C n A) (x)_E (C n B) -> C at one context C; a report lists them in the
    order of its contexts of A v B."""

    injective: bool
    surjective: bool

    @property
    def is_isomorphism(self) -> bool:
        return self.injective and self.surjective

    def to_json(self) -> dict:
        return {
            "injective": self.injective,
            "surjective": self.surjective,
            "isomorphism": self.is_isomorphism,
        }


def ring_component(c: Partition, pair: AlgebraPair) -> RingComponent:
    """Decide the multiplication map at context C of A v B on spectra."""
    pair.require_partition_engine("ring components")
    joined = common_refinement(pair.left, pair.right)
    if not is_coarser(c, joined):
        raise InputError(f"{c} is not a context of the join {joined}")
    c1, c2, amalgam = (overlap_join(c, p) for p in (pair.left, pair.right, pair.meet_algebra))
    # Containing-block maps: C refines C1 and C2.
    image = set(zip(block_map(c1, c), block_map(c2, c)))
    fibered = _fibered_blocks(block_map(amalgam, c1), block_map(amalgam, c2))
    _check_spectrum(image, fibered, lambda: str(c))
    return RingComponent(injective=image == fibered, surjective=len(image) == c.num_blocks)


def _fibered_blocks(left: Sequence[int], right: Sequence[int]) -> set[tuple[int, int]]:
    """The fibered product of blocks(C1) and blocks(C2) over blocks(C n M),
    as block-index pairs, from the block of C n M holding each block of C1
    (left) and of C2 (right)."""
    return {(i, j) for i, x in enumerate(left) for j, y in enumerate(right) if x == y}


def _check_spectrum(image: set[tuple[int, int]], fibered: set[tuple[int, int]], label) -> None:
    """The multiplication map at C is decided from the image of blocks(C) in
    blocks(C n A) x blocks(C n B) and the fibered product of those block sets
    over blocks(C n M): surjectivity of that spectrum map is injectivity of
    the algebra map, and injectivity is its surjectivity.  An image outside
    the fibered product is a bug, reported with C's label, label()."""
    if not image <= fibered:
        raise InternalConsistencyError(
            "ring component's spectrum map leaves the fibered product of block sets",
            dump={"context": label(), "image": sorted(image), "fibered": sorted(fibered)},
        )


@dataclass(frozen=True)
class DescentReport:
    """The descent morphism of a pair, in poset and (optionally) ring form,
    with the pair's hierarchy report, decided once for every later stage."""

    pair: AlgebraPair
    source: Contexts
    target: FiberedContextProduct
    h: MonotoneMap
    adjunction: AdjunctionReport
    thickening: ThickeningReport
    hierarchy: HierarchyReport
    ring_components: Optional[tuple[RingComponent, ...]] = None
    sheaf: Optional[bool] = None
    sheaf_by_characterization: Optional[bool] = None

    @cached_property
    def labels(self) -> tuple[list[str], list[str], list[str]]:
        """The labels of C_{A v B}, C_A and C_B (`Contexts.labels`), made
        once per report: `to_json` and the stability rows read them."""
        factors = self.target.left_poset, self.target.right_poset
        return tuple(list(f.labels()) for f in (self.source, *factors))

    def to_json(self) -> dict:
        """The report as JSON.  Its five maps keyed by contexts of A v B or
        by fibered pairs are templates (`jsontext.rendered_object`) filled
        with labels made from block strings (`labels`) and encoded once, so
        no context of A v B becomes a Partition."""
        target, adjunction = self.target, self.adjunction
        labels, lefts, rights = self.labels
        keys = list(map(encode_basestring_ascii, labels))
        pairs = [(lefts[i], rights[j]) for i, j in target.pairs]
        pair_keys = [encode_basestring_ascii(f"({x}, {y})") for x, y in pairs]
        flags = (False, True)
        out = {
            "pair": self.pair.describe(),
            "h": {
                "source_size": len(labels),
                "target_size": len(pairs),
                "injective": self.h.is_injective(),
                "surjective": self.h.is_surjective(),
                "table": rendered_object(keys, pairs, self.h.table),
            },
            "adjunction": {
                "adjoint_exists": adjunction.adjoint_exists,
                "is_coreflector": adjunction.is_coreflector,
                "is_iso": adjunction.is_iso,
                "adjoint": rendered_object(pair_keys, labels, adjunction.adjoint.table),
                "unit_strict": rendered_object(keys, flags, adjunction.unit_strict),
                "counit_strict": rendered_object(pair_keys, flags, adjunction.counit_strict),
            },
            "thickening": {
                "surjective": self.thickening.surjective,
                "every_fiber_has_minimum": all(self.thickening.fiber_has_minimum),
                "section_monotone": self.thickening.section_monotone,
                "overall": self.thickening.overall,
            },
            "strong_locality": self.hierarchy.strong_locality,
            "unit_law": self.hierarchy.unit_law,
        }
        if self.ring_components is not None:
            kinds: dict[RingComponent, int] = {}
            choice = [kinds.setdefault(rc, len(kinds)) for rc in self.ring_components]
            out["ring_components"] = rendered_object(keys, [rc.to_json() for rc in kinds], choice)
        out["sheaf"] = self.sheaf
        out["sheaf_by_characterization"] = self.sheaf_by_characterization
        return out


def descent_map(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL,
                target: Optional[FiberedContextProduct] = None) -> DescentReport:
    """h and its left adjoint g(C1, C2) = C1 v C2 as two tables, every
    verdict read off them by equality, and g -| h certified on each input
    (`_certify_adjunction`).  C_A x_M C_B is built here unless it is given
    as `target`, as `guard_descent` returns it.

    With g -| h, a fiber of h over q is nonempty iff it contains g(q), which
    is then its least element: h is a thickening iff a coreflector iff
    surjective, and an isomorphism iff moreover g(h(C)) = C for every C (the
    unit law).  A failed check, or a verdict that contradicts these
    theorems, raises InternalConsistencyError.
    """
    pair.require_partition_engine("the descent map")
    joined = common_refinement(pair.left, pair.right)
    # Every size guard, the product's before it is built, runs before
    # the hierarchy's witness searches.
    guard_contexts(max_bell, pair.left, pair.right, joined)
    if target is None:
        target = fibered_context_product(pair, max_bell)
    hierarchy = hierarchy_report(pair, max_bell)
    source = Contexts(joined)
    h, g = _h_table(pair, source, target), _g_table(source, target)
    _certify_adjunction(pair, source, target, h, g)
    unit_strict = tuple(g[t] != s for s, t in enumerate(h))
    counit_strict = tuple(h[s] != t for t, s in enumerate(g))
    coreflector = not any(counit_strict)
    adjunction = AdjunctionReport(
        adjoint_exists=True, adjoint=MonotoneMap.certified(target, source, g),
        unit_strict=unit_strict, counit_strict=counit_strict, is_coreflector=coreflector,
        is_iso=coreflector and not any(unit_strict), missing_least=(),
    )
    h_map = MonotoneMap.certified(source, target, h)
    report = DescentReport(
        pair=pair, source=source, target=target, h=h_map, adjunction=adjunction,
        thickening=_thickening(h_map, adjunction), hierarchy=hierarchy,
    )
    # The unit law is "g(h(C)) = C for every C"; pair-level strong locality
    # quantifies over all of C_A x C_B, a superset of the fibered pairs.
    if hierarchy.unit_law == any(unit_strict):
        _trap(pair, "unit law disagrees with the unit of the descent adjunction",
              unit_law=hierarchy.unit_law)
    failing = hierarchy.witnesses.get("unit_law", {}).get("count", 0)
    if failing != sum(unit_strict):
        _trap(pair, "unit-law witness count disagrees with the unit of the descent adjunction",
              count=failing, strict_units=sum(unit_strict))
    if hierarchy.strong_locality and not coreflector:
        _trap(pair, "pair-level strong locality holds but the descent map is not a coreflector")
    return report


def _trap(pair: AlgebraPair, message: str, **dump) -> NoReturn:
    dump = {k: str(v) for k, v in dump.items()}
    raise InternalConsistencyError(message, dump={"pair": pair.describe(), **dump})


def _certify_adjunction(pair: AlgebraPair, source: Contexts,
                        target: FiberedContextProduct, h: list[int], g: list[int]) -> None:
    """Certify g -| h by two exactness checks, each linear in its table, or
    raise InternalConsistencyError (also for an entry that names no element
    of the table's target): h(C) = (C n A, C n B) at every context
    C of A v B, certified by counting, and g(q) = q1 v q2 at every q (g(q)
    refines q1 and q2, with one block per distinct (q1, q2) label pair).
    Every string is read over A v B's blocks.

    The count: let s(C) be h(C)'s coordinate in C_A, a context of A.  If C
    refines s(C), then s(C) is coarser than both C and A, so it is a
    coarsening of C n A: it has at most as many blocks, and as many only if
    s(C) = C n A.  So h is exact on A's side iff C refines s(C) at every C
    and the blocks of the s(C) add up to those of the C n A, a sum in closed
    form (`_meet_block_total`); likewise on B's side.  On any failure the
    union-find walk that the count replaced (`_first_inexact`) names the
    first inexact context; a count that fails where the walk finds none is
    trapped with both totals.

    A right adjoint is unique (Davey & Priestley, Introduction to Lattices
    and Order, ch. 7): g -| h means (C1, C2) <= h(C) iff g(C1, C2) <= C,
    which for g the join is C1 <= C n A and C2 <= C n B, so h(C) must be the
    greatest such pair, (C n A, C n B), which lies in C_A x_M C_B as
    (C n A) n M = C n M = (C n B) n M.  So the checks accept exactly the tables that the order
    checks of g -| h accept (h monotone along the Hasse covers of C_{A v B},
    q <= h(g(q)) and g(h(C)) <= C everywhere, g the join).  Exact meets are
    monotone, and so is a join."""
    joined = source.algebra
    lefts, rights = (list(f.over(joined)) for f in (target.left_poset, target.right_poset))
    # each side's coordinate of every product element
    sides = [lefts[i] for i, _ in target.pairs], [rights[j] for _, j in target.pairs]
    firsts, seconds = sides
    if not 0 <= min(h) <= max(h) < len(target):
        k = next(k for k, q in enumerate(h) if not 0 <= q < len(target))
        _trap(pair, "h names no element of the fibered product",
              context=_label(source, k), h=h[k], product_size=len(target))
    if not 0 <= min(g) <= max(g) < len(source):
        q = next(q for q, k in enumerate(g) if not 0 <= k < len(source))
        _trap(pair, "g names no context of A v B",
              target_element=target.elements[q], g=g[q], contexts=len(source))
    named, keys = set(g), {}  # the strings of the contexts that g names
    refined = True
    for k, (key, q) in enumerate(zip(source.strings(), h)):
        # C refines both coordinates iff each of its groups meets one label pair
        if len(set(zip(key, firsts[q], seconds[q]))) != max(key) + 1:
            refined = False
            break
        if k in named:
            keys[k] = key
    totals = {}  # per side, the blocks of h(C)'s coordinate and of C's meet, summed over C
    for side, strings, p in zip("AB", sides, (pair.left, pair.right)):
        counted = sum(map([max(x) + 1 for x in strings].__getitem__, h)) if refined else None
        totals[side] = counted, _meet_block_total(block_map(p, joined))
    failed = [side for side, (counted, closed) in totals.items() if counted != closed]
    if failed:
        k = _first_inexact(pair, source, target, h)
        if k is not None:
            _trap(pair, "descent map has no left adjoint: h(C) != (C n A, C n B)",
                  context=_label(source, k), h=target.elements[h[k]])
        counted, closed = totals[failed[0]]
        _trap(pair, "the union-find walk finds h exact, but its counting certificate fails",
              side="C n " + failed[0], counted=counted, closed_form=closed)
    for q, ((i, j), p) in enumerate(zip(target.pairs, g)):
        z, x, y = keys[p], lefts[i], rights[j]
        if not (len(set(zip(z, x))) == len(set(zip(z, y))) == max(z) + 1
                == len(set(zip(x, y)))):
            c1, c2 = target.elements[q]
            _trap(pair, "computed left adjoint differs from the algebraic join",
                  target_element=(c1, c2), computed=_label(source, p),
                  join=common_refinement(c1, c2))


def _meet_block_total(blocks: Sequence[int]) -> int:
    """Sum over the contexts C of a partition J of the blocks of C n P, for
    P coarser than J, given as `blocks`, the block of P holding each of J's
    N blocks (`block_map(P, J)`).

    A set S of P's blocks is a block of C n P iff C groups the J-blocks in S
    among themselves and so links all of S: there are conn(S) such
    groupings within S and Bell(N - |S|) groupings of the rest, where |S|
    counts J-blocks.  A grouping within S that does not link S is counted
    by the component T of S's least P-block, so conn(S) = Bell(|S|) - sum
    over T < S holding that block of conn(T) Bell(|S - T|).  For P = J the
    sum is Bell(N + 1) - Bell(N).  3^(#blocks of P) steps."""
    n, width = len(blocks), max(blocks) + 1
    bells = [bell_number(m) for m in range(n + 1)]
    size = [0] * (1 << width)  # the J-blocks in each set of P's blocks
    for b in blocks:
        size[1 << b] += 1
    conn, total = [0] * (1 << width), 0
    for s in range(1, 1 << width):
        low = s & -s
        rest = s ^ low
        size[s] = size[low] + size[rest]
        c, sub = bells[size[s]], rest
        while sub:  # every T = low | sub with sub a proper subset of rest
            sub = (sub - 1) & rest
            t = low | sub
            c -= conn[t] * bells[size[s] - size[t]]
        conn[s] = c
        total += c * bells[n - size[s]]
    return total


def _first_inexact(pair: AlgebraPair, source: Contexts, target: FiberedContextProduct,
                   h: list[int]) -> Optional[int]:
    """The first context C of A v B, in canonical order, whose h(C) is not
    (C n A, C n B) recomputed by one union-find per side on C's point
    string, or None."""
    joined, a, b = source.algebra, pair.left.rgs, pair.right.rgs
    # the factors' contexts as point strings: read over the discrete algebra
    discrete = Partition.discrete(joined.ambient)
    lefts, rights = (list(f.over(discrete)) for f in (target.left_poset, target.right_poset))
    position = {(lefts[i], rights[j]): q for q, (i, j) in enumerate(target.pairs)}
    for k, (key, q) in enumerate(zip(source.strings(), h)):
        c = tuple(map(key.__getitem__, joined.rgs))
        if position.get((_overlap_rgs(c, a), _overlap_rgs(c, b))) != q:
            return k
    return None


def _label(source: Contexts, k: int) -> str:
    """The label of context k, for a trap's dump."""
    return next(islice(source.labels(), k, None))


def _h_table(pair: AlgebraPair, source: Contexts, target: FiberedContextProduct) -> list[int]:
    """h(C) = (C n A, C n B) for every context C of A v B, as target indices:
    the restrictions of C to A and to B (`_restrictions`) looked up among
    the product's pairs.  A pair of strings that is no element of the
    product is a bug, trapped with C's label."""
    lefts, rights = (list(f.strings()) for f in (target.left_poset, target.right_poset))
    position = {lefts[i] + rights[j]: q for q, (i, j) in enumerate(target.pairs)}
    joined, table = source.algebra, []
    for left, right in zip(_restrictions(source, block_map(pair.left, joined)),
                           _restrictions(source, block_map(pair.right, joined))):
        q = position.get(left + right)
        if q is None:
            _trap(pair, "h(C) = (C n A, C n B) is not an element of the fibered context product",
                  context=_label(source, len(table)), restrictions=(left, right))
        table.append(q)
    return table


def _g_table(source: Contexts, target: FiberedContextProduct) -> list[int]:
    """g(C1, C2) = C1 v C2 for every element of the product, as source
    indices: the join of C1's and C2's block strings over A v B's blocks,
    ranked among the restricted-growth strings in canonical order
    (`_rgs_rank`), so no string of A v B is looked up.  A join that is not
    such a string is a bug, trapped with its element of the product."""
    completions = _rgs_completions(source.algebra.num_blocks)
    factors = target.left_poset, target.right_poset
    lefts, rights = (list(f.over(source.algebra)) for f in factors)
    table = []
    for i, j in target.pairs:
        p = _rgs_rank(_canonical_rgs(tuple(zip(lefts[i], rights[j]))), completions)
        if p is None:
            c1, c2 = target.elements[len(table)]
            raise InternalConsistencyError(
                "g(C1, C2) = C1 v C2 is not a context of A v B",
                dump={"target_element": f"({c1}, {c2})", "join": str(common_refinement(c1, c2))},
            )
        table.append(p)
    return table


def _thickening(h: MonotoneMap, adjunction: AdjunctionReport) -> ThickeningReport:
    """h's fibers, hashed by image: nonempty exactly at the q with
    h(g(q)) = q, where g(q) is their minimum, so the fiber-minimum section
    exists iff h is surjective, and is g.  A disagreement with the
    adjunction's coreflector verdict or its table is a bug."""
    image = set(h.table)
    nonempty = tuple(q in image for q in range(len(h.target)))
    surjective = all(nonempty)
    if surjective != adjunction.is_coreflector or (
        surjective and any(h.table[p] != q for q, p in enumerate(adjunction.adjoint.table))
    ):
        raise InternalConsistencyError(
            "thickening section disagrees with the computed left adjoint",
            dump={"surjective": surjective, "is_coreflector": adjunction.is_coreflector},
        )
    return ThickeningReport(
        surjective=surjective, fiber_has_minimum=nonempty,
        section_monotone=True if surjective else None, overall=surjective,
    )


def sheaf_report(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL,
                 target: Optional[FiberedContextProduct] = None) -> DescentReport:
    """Decide the sheaf condition twice and insist the answers agree; the
    product `target`, if given, is passed on to `descent_map`.

    Direct route (no hypotheses): h is a poset isomorphism and every ring
    component is an isomorphism.  Characterized route (meaningful under
    extended locality): C*-independence together with the unit law.
    """
    base = descent_map(pair, max_bell, target)
    hierarchy = base.hierarchy
    components = _ring_components(base)
    direct = base.adjunction.is_iso and all(rc.is_isomorphism for rc in components)
    characterized = (hierarchy.cstar_independent is True) and hierarchy.unit_law
    if hierarchy.extended_locality and direct != characterized:
        raise InternalConsistencyError(
            "sheaf decision routes disagree under extended locality",
            dump={
                "pair": pair.describe(),
                "direct": direct,
                "characterized": characterized,
                "h_is_iso": base.adjunction.is_iso,
                "ring_components": {
                    label: rc.to_json() for label, rc in zip(base.source.labels(), components)
                },
            },
        )
    return replace(
        base,
        ring_components=components,
        sheaf=direct,
        sheaf_by_characterization=characterized,
    )


def _ring_components(report: DescentReport) -> tuple[RingComponent, ...]:
    """Every ring component, read off h's table.  The image of blocks(C) is
    the pair (C n A, C n B) of containing blocks of each block of A v B, so
    it depends only on q = h(C), as does the fibered block set; both are
    computed once per q, and C's block count is read off the width of its
    prefix (`Contexts.block_counts`).  Since M <= A, the amalgam C n M is
    (C n A) n M: the product keeps it, as the block string over M's blocks
    of each left factor, and it is read here at M's block holding each
    block of A v B."""
    target, source = report.target, report.source
    lefts, rights = (list(f.over(source.algebra)) for f in (target.left_poset, target.right_poset))
    meets = block_map(report.pair.meet_algebra, source.algebra)
    spectra: dict[int, tuple[bool, int]] = {}
    kinds: dict[tuple[bool, bool], RingComponent] = {}
    components = []
    for k, (blocks, q) in enumerate(zip(source.block_counts(), report.h.table)):
        if q not in spectra:
            i, j = target.pairs[q]
            amalgam = [target.restrictions[i][m] for m in meets]
            image = set(zip(lefts[i], rights[j]))
            # the block of C n M holding each group of C1 and of C2: block
            # strings are restricted-growth, so each dict lists them in order
            left, right = (list(dict(zip(s, amalgam)).values()) for s in (lefts[i], rights[j]))
            fibered = _fibered_blocks(left, right)
            _check_spectrum(image, fibered, lambda: _label(source, k))
            spectra[q] = image == fibered, len(image)
        injective, size = spectra[q]
        kind = injective, size == blocks
        if kind not in kinds:
            kinds[kind] = RingComponent(*kind)
        components.append(kinds[kind])
    return tuple(components)


@dataclass(frozen=True)
class StabilityViolation:
    """A triple E <= C v D with E != (E n C) v (E n D)."""

    covered: Partition
    left_context: Partition
    right_context: Partition
    generated: Partition


def guard_descent(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL) -> FiberedContextProduct:
    """Every guard of sheaf_report and then of stability_rows, in the
    order they raise, so the `descent` command refuses before any descent
    table is built.  The product's guard runs by building the product,
    which is returned for `sheaf_report` to use."""
    pair.require_partition_engine("the descent map")
    guard_contexts(max_bell, common_refinement(pair.left, pair.right))
    target = fibered_context_product(pair, max_bell)
    _guard_stability(pair)
    return target


def _guard_stability(pair: AlgebraPair) -> None:
    joined = common_refinement(pair.left, pair.right)
    sizes = [bell_number(p.num_blocks) for p in (joined, pair.left, pair.right)]
    triples = sizes[0] * sizes[1] * sizes[2]
    guard(triples, MAX_STABILITY_TRIPLES, lambda: (
        f"covering stability of {pair.left} | {pair.right} needs "
        f"|C_(A v B)|*|C_A|*|C_B| = {sizes[0]}*{sizes[1]}*{sizes[2]} = {triples} triples"
    ))


def covering_stability(
    pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL
) -> tuple[StabilityViolation, ...]:
    """Check the Grothendieck stability requirement E = (E n C) v (E n D) for
    every E in C_{A v B} below a cover C v D; return every violating triple,
    ordered by E, then C, then D.  These are `stability_rows` with each
    index read as its context."""
    (source, left, right), rows = stability_rows(pair, max_bell)
    sources, lefts, rights = source.elements, left.elements, right.elements
    return tuple(
        StabilityViolation(sources[e], lefts[i], rights[j], sources[g]) for e, i, j, g in rows
    )


def stability_rows(
    pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL
) -> tuple[tuple[Contexts, Contexts, Contexts], list[tuple[int, int, int, int]]]:
    """The violations of covering stability as rows (e, i, j, g) of indices
    into C_{A v B}, C_A, C_B and C_{A v B}: E, C, D and the generated
    (E n C) v (E n D), ordered by E, then C, then D; returned with those
    three Contexts.

    That requirement is the unit law of the pair (C, D): C <= A and D <= B
    give C v D <= A v B, so the E below C v D are the contexts of C v D.
    Every context involved is a context of A v B, named by its index in the
    canonical order of C_{A v B}'s block strings; C_A and C_B are read over
    A v B's blocks (`Contexts.over`).  Each C, and each D, has its meets
    E n C from one walk of the restriction kernel, and the joins and the
    contexts below each C v D are call-local memos of indices, so no
    Partition is built per visit.  Each row goes into the bucket of its E,
    so the rows come out in order with no sort.  A cover has failures iff
    C and D are incomparable (the closed form of `unit_law`): a cover whose
    sweep disagrees is a bug.

    The sweep visits sum over (C, D) of Bell(|C v D|) contexts, at most
    |C_{A v B}|*|C_A|*|C_B|; more than MAX_STABILITY_TRIPLES of those
    triples raise SizeGuardError before any context is visited."""
    pair.require_partition_engine("the covering stability check")
    _guard_stability(pair)
    joined = common_refinement(pair.left, pair.right)
    guard_contexts(max_bell, joined, pair.left, pair.right)
    contexts = source, left, right = Contexts(joined), Contexts(pair.left), Contexts(pair.right)
    strings = list(source.strings())
    position = {s: k for k, s in enumerate(strings)}
    n = len(strings)
    joins = _Memo(
        lambda xy: position[_canonical_rgs(tuple(zip(strings[xy // n], strings[xy % n])))]
    )
    # the contexts of K: its groups regrouped by each restricted-growth string over them
    below = _Memo(lambda k: [position[tuple(map(g.__getitem__, strings[k]))]
                             for g in _set_partition_rgs(max(strings[k]) + 1)])

    def meets(c: tuple[int, ...]) -> tuple[int, list[int]]:
        # C's index, and E n C's for every E: each distinct restriction, a
        # string over C's blocks, is read back over A v B's blocks once
        index = _Memo(lambda r: position[tuple(map(r.__getitem__, c))])
        return position[c], list(map(index.__getitem__, _restrictions(source, c)))

    lefts, rights = (list(map(meets, f.over(joined))) for f in (left, right))
    # One bucket per E: the rows are found in (C, D) order, so each bucket
    # is in that order and the buckets laid end to end are in (E, C, D) order.
    buckets = [[] for _ in range(n)]
    for i, (c, left_meets) in enumerate(lefts):
        for j, (d, right_meets) in enumerate(rights):
            top = joins[c * n + d]
            failing = [(e, g) for e in below[top]
                       if (g := joins[left_meets[e] * n + right_meets[e]]) != e]
            # The closed form of the unit law of (C, D): failures iff incomparable.
            comparable = top in (c, d)
            if bool(failing) == comparable:
                raise InternalConsistencyError(
                    "covering stability disagrees with the unit law's closed form on a cover",
                    dump={
                        "pair": pair.describe(),
                        "cover": [str(left.elements[i]), str(right.elements[j])],
                        "comparable": comparable,
                        "violations": len(failing),
                    },
                )
            for e, g in failing:
                buckets[e].append((e, i, j, g))
    rows = []
    for bucket in buckets:
        rows += bucket
        bucket.clear()  # freed as soon as copied: a lower peak than one list of lists
    return contexts, rows
