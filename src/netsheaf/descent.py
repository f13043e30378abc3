"""The descent machinery: fibered context products, the map h, ring
components, the sheaf condition, and the covering-relation stability check.

For a pair (A, B) with meet algebra M (contained in both), the descent map

    h : C_{A v B} -> C_A x_M C_B,   C |-> (C n A, C n B)

lands in the poset of context pairs agreeing after restriction to M.  The
sheaf condition holds iff h is a poset isomorphism and, at every context C,
the multiplication map (C n A) (x)_E (C n B) -> C is an isomorphism, where
E is the amalgam C n M.  Ring components are decided on spectra: by finite
Gelfand duality the amalgamated tensor product of function algebras is the
function algebra on the fibered product of block sets, and the algebra map
is injective iff the spectrum map is surjective and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .contexts import (
    DEFAULT_MAX_BELL,
    AdjunctionReport,
    ContextPoset,
    FinitePoset,
    MonotoneMap,
    ThickeningReport,
    enumerate_contexts,
    guard_contexts,
    left_adjoint,
    thickening_report,
)
from .errors import InputError, InternalConsistencyError, SizeGuardError
from .independence import (
    AlgebraPair,
    cstar_independent,
    extended_locality,
    strong_locality,
    unit_law,
)
from .partitions import (
    Partition,
    bell_number,
    coarsenings,
    common_refinement,
    is_coarser,
    overlap_join,
)

# Bound on the (E, C, D) triples the covering-stability sweep may test.
MAX_STABILITY_TRIPLES = 10**6

# Bound on the elements of a fibered context product C_A x_M C_B, against the
# 60 s budget per command: on 2 vCPUs `check-net` took 7.5 s for 10,556 over
# the 203 contexts of C_{A v B}, 37 s for 8,280 and 56 s for 11,543 over 4140.
MAX_FIBERED_ELEMENTS = 10**4


class FiberedContextProduct(FinitePoset):
    """Pairs (C1, C2) of contexts with C1 n M = C2 n M, ordered componentwise."""

    __slots__ = ("left_poset", "right_poset", "meet")

    def __init__(self, left_poset: ContextPoset, right_poset: ContextPoset, meet: Partition):
        object.__setattr__(self, "left_poset", left_poset)
        object.__setattr__(self, "right_poset", right_poset)
        object.__setattr__(self, "meet", meet)
        # Group the right contexts by their restriction to M, so each left
        # context meets only the right contexts it agrees with.
        by_restriction = _restriction_groups(right_poset.elements, meet)
        elements = [
            (c1, c2)
            for c1 in left_poset.elements
            for c2 in by_restriction.get(overlap_join(c1, meet), ())
        ]
        elements.sort(key=lambda pair: (pair[0].rgs, pair[1].rgs))
        # Componentwise order, composed from the factor posets' masks: the
        # product can be large, so avoid a quadratic sweep of comparisons.
        left_above = _above(left_poset, [c1 for c1, _ in elements])
        right_above = _above(right_poset, [c2 for _, c2 in elements])
        up_masks = [
            left_above[left_poset.index[c1]] & right_above[right_poset.index[c2]]
            for c1, c2 in elements
        ]
        super().__init__(elements, up_masks=up_masks)

    def projection_left(self) -> MonotoneMap:
        return MonotoneMap.from_function(self, self.left_poset, lambda e: e[0])

    def projection_right(self) -> MonotoneMap:
        return MonotoneMap.from_function(self, self.right_poset, lambda e: e[1])

    def is_full_product(self) -> bool:
        return len(self) == len(self.left_poset) * len(self.right_poset)


def _restriction_groups(
    contexts: Sequence[Partition], meet: Partition
) -> dict[Partition, list[Partition]]:
    """The contexts grouped by their restriction C n M to the meet algebra."""
    groups: dict[Partition, list[Partition]] = {}
    for c in contexts:
        groups.setdefault(overlap_join(c, meet), []).append(c)
    return groups


def _above(poset: FinitePoset, components: list[Partition]) -> list[int]:
    """Per element i of a factor poset, the mask of the product positions
    whose component (one per position) lies at or above element i."""
    bits = [0] * len(poset)
    for pos, c in enumerate(components):
        bits[poset.index[c]] |= 1 << pos
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
    """C_A x_M C_B.  Its size is counted from the contexts' restrictions to M
    before any poset is built; more than MAX_FIBERED_ELEMENTS raise SizeGuardError."""
    pair.require_partition_engine("the fibered context product")
    guard_contexts(max_bell, pair.left, pair.right)
    meet = pair.meet_algebra
    left = _restriction_groups(coarsenings(pair.left), meet)
    right = _restriction_groups(coarsenings(pair.right), meet)
    count = sum(len(cs) * len(right.get(key, ())) for key, cs in left.items())
    if count > MAX_FIBERED_ELEMENTS:
        raise SizeGuardError(
            f"fibered context product of {pair.left} | {pair.right} over {meet} "
            f"would have {count} elements, exceeding the guard of {MAX_FIBERED_ELEMENTS}",
            bound=MAX_FIBERED_ELEMENTS,
            requested=count,
        )
    return FiberedContextProduct(
        enumerate_contexts(pair.left, max_bell),
        enumerate_contexts(pair.right, max_bell),
        meet,
    )


@dataclass(frozen=True)
class RingComponent:
    """Injectivity/surjectivity of the multiplication map
    (C n A) (x)_E (C n B) -> C at one context C."""

    context: Partition
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
    """Decide the multiplication map at context C on spectra.

    blocks(C) maps into the fibered product of blocks(C n A) and blocks(C n B)
    over blocks(C n M); surjectivity of that spectrum map is injectivity of
    the algebra map, and injectivity is its surjectivity.
    """
    pair.require_partition_engine("ring components")
    joined = common_refinement(pair.left, pair.right)
    if not is_coarser(c, joined):
        raise InputError(f"{c} is not a context of the join {joined}")
    c1 = overlap_join(c, pair.left)
    c2 = overlap_join(c, pair.right)
    amalgam = overlap_join(c, pair.meet_algebra)

    # Containing-block maps: C refines C1, C2 and the amalgam, and C1, C2
    # refine the amalgam, so representatives determine the block indices.
    def spectrum_point(block: tuple[int, ...]) -> tuple[int, int]:
        rep = block[0]
        return (c1.block_of(rep), c2.block_of(rep))

    image = {spectrum_point(b) for b in c.blocks}
    fibered = {
        (i, j)
        for i, bi in enumerate(c1.blocks)
        for j, bj in enumerate(c2.blocks)
        if amalgam.block_of(bi[0]) == amalgam.block_of(bj[0])
    }
    assert image <= fibered
    spectrum_injective = len(image) == c.num_blocks
    spectrum_surjective = image == fibered
    return RingComponent(
        context=c,
        injective=spectrum_surjective,
        surjective=spectrum_injective,
    )


@dataclass(frozen=True)
class DescentReport:
    """The descent morphism of a pair, in poset and (optionally) ring form."""

    pair: AlgebraPair
    source: ContextPoset
    target: FiberedContextProduct
    h: MonotoneMap
    adjunction: AdjunctionReport
    thickening: ThickeningReport
    strong_locality: bool
    unit_law: bool
    ring_components: Optional[tuple[RingComponent, ...]] = None
    sheaf: Optional[bool] = None
    sheaf_by_characterization: Optional[bool] = None

    def to_json(self) -> dict:
        out = {
            "pair": self.pair.describe(),
            "h": {
                "source_size": len(self.source),
                "target_size": len(self.target),
                "injective": self.h.is_injective(),
                "surjective": self.h.is_surjective(),
                "table": {
                    str(c): [str(t[0]), str(t[1])]
                    for c, t in zip(
                        self.source.elements,
                        (self.target.elements[i] for i in self.h.table),
                    )
                },
            },
            "adjunction": {
                "adjoint_exists": self.adjunction.adjoint_exists,
                "is_coreflector": self.adjunction.is_coreflector,
                "is_iso": self.adjunction.is_iso,
                "adjoint": None
                if self.adjunction.adjoint is None
                else {
                    f"({t[0]}, {t[1]})": str(self.source.elements[i])
                    for t, i in zip(self.target.elements, self.adjunction.adjoint.table)
                },
                "unit_strict": None
                if self.adjunction.unit_strict is None
                else {
                    str(c): strict
                    for c, strict in zip(self.source.elements, self.adjunction.unit_strict)
                },
                "counit_strict": None
                if self.adjunction.counit_strict is None
                else {
                    f"({t[0]}, {t[1]})": strict
                    for t, strict in zip(self.target.elements, self.adjunction.counit_strict)
                },
            },
            "thickening": {
                "surjective": self.thickening.surjective,
                "every_fiber_has_minimum": all(self.thickening.fiber_has_minimum),
                "section_monotone": self.thickening.section_monotone,
                "overall": self.thickening.overall,
            },
            "strong_locality": self.strong_locality,
            "unit_law": self.unit_law,
        }
        if self.ring_components is not None:
            out["ring_components"] = {
                str(rc.context): rc.to_json() for rc in self.ring_components
            }
        out["sheaf"] = self.sheaf
        out["sheaf_by_characterization"] = self.sheaf_by_characterization
        return out


def descent_map(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL) -> DescentReport:
    """Build h on the pair's fibered product and run the generic adjunction
    and thickening diagnostics.

    The left adjoint is computed once.  It is cross-checked against the
    algebraic join (C1, C2) |-> C1 v C2 here and against the fiber-minimum
    section in thickening_report; a mismatch is an internal bug, not input
    error.
    """
    pair.require_partition_engine("the descent map")
    joined = common_refinement(pair.left, pair.right)
    # C_{A v B} has the most contexts of the three posets, so its Bell guard
    # runs first; the product's guard runs next, before any poset is built.
    guard_contexts(max_bell, joined)
    target = fibered_context_product(pair, max_bell)
    source = enumerate_contexts(joined, max_bell)
    h = MonotoneMap.from_function(
        source,
        target,
        lambda c: (overlap_join(c, pair.left), overlap_join(c, pair.right)),
    )
    adjunction = left_adjoint(h)
    if adjunction.adjoint_exists:
        for (c1, c2), i in zip(target.elements, adjunction.adjoint.table):
            algebraic = common_refinement(c1, c2)
            if source.elements[i] != algebraic:
                raise InternalConsistencyError(
                    "computed left adjoint differs from the algebraic join",
                    dump={
                        "pair": pair.describe(),
                        "target_element": f"({c1}, {c2})",
                        "computed": str(source.elements[i]),
                        "join": str(algebraic),
                    },
                )
    return DescentReport(
        pair=pair,
        source=source,
        target=target,
        h=h,
        adjunction=adjunction,
        thickening=thickening_report(h, adjunction),
        strong_locality=strong_locality(pair, max_bell),
        unit_law=unit_law(pair, max_bell),
    )


def sheaf_report(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL) -> DescentReport:
    """Decide the sheaf condition twice and insist the answers agree.

    Direct route (no hypotheses): h is a poset isomorphism and every ring
    component is an isomorphism.  Characterized route (meaningful under
    extended locality): C*-independence together with the unit law.
    """
    base = descent_map(pair, max_bell)
    components = tuple(ring_component(c, pair) for c in base.source.elements)
    direct = base.adjunction.is_iso and all(rc.is_isomorphism for rc in components)
    characterized = (cstar_independent(pair) is True) and base.unit_law
    if extended_locality(pair) and direct != characterized:
        raise InternalConsistencyError(
            "sheaf decision routes disagree under extended locality",
            dump={
                "pair": pair.describe(),
                "direct": direct,
                "characterized": characterized,
                "h_is_iso": base.adjunction.is_iso,
                "ring_components": {
                    str(rc.context): rc.to_json() for rc in components
                },
            },
        )
    return replace(
        base,
        ring_components=components,
        sheaf=direct,
        sheaf_by_characterization=characterized,
    )


@dataclass(frozen=True)
class StabilityViolation:
    """A triple E <= C v D with E != (E n C) v (E n D)."""

    covered: Partition
    left_context: Partition
    right_context: Partition
    generated: Partition

    def to_json(self) -> dict:
        return {
            "covered": str(self.covered),
            "left_context": str(self.left_context),
            "right_context": str(self.right_context),
            "generated": str(self.generated),
        }


def covering_stability(
    pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL
) -> tuple[StabilityViolation, ...]:
    """Check the Grothendieck stability requirement E = (E n C) v (E n D) for
    every E in C_{A v B} below a cover C v D; return every violating triple.

    The sweep tests |C_{A v B}|*|C_A|*|C_B| triples; more than
    MAX_STABILITY_TRIPLES of them raise SizeGuardError before any is tested."""
    pair.require_partition_engine("the covering stability check")
    joined = common_refinement(pair.left, pair.right)
    sizes = [bell_number(p.num_blocks) for p in (joined, pair.left, pair.right)]
    triples = sizes[0] * sizes[1] * sizes[2]
    if triples > MAX_STABILITY_TRIPLES:
        raise SizeGuardError(
            f"covering stability of {pair.left} | {pair.right} needs "
            f"|C_(A v B)|*|C_A|*|C_B| = {sizes[0]}*{sizes[1]}*{sizes[2]} = {triples} "
            f"triples, exceeding the guard of {MAX_STABILITY_TRIPLES}",
            bound=MAX_STABILITY_TRIPLES,
            requested=triples,
        )
    guard_contexts(max_bell, joined, pair.left, pair.right)
    source = coarsenings(joined)
    left_contexts = coarsenings(pair.left)
    right_contexts = coarsenings(pair.right)
    violations = []
    for e in source:
        for c in left_contexts:
            for d in right_contexts:
                if not is_coarser(e, common_refinement(c, d)):
                    continue
                generated = common_refinement(overlap_join(e, c), overlap_join(e, d))
                if generated != e:
                    violations.append(
                        StabilityViolation(
                            covered=e,
                            left_context=c,
                            right_context=d,
                            generated=generated,
                        )
                    )
    return tuple(violations)
