from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netsheaf.contexts
import netsheaf.descent
from netsheaf import (
    MAX_FIBERED_ELEMENTS,
    MAX_STABILITY_TRIPLES,
    AlgebraPair,
    ContextPoset,
    EngineError,
    FiberedContextProduct,
    FinitePoset,
    InputError,
    InternalConsistencyError,
    MonotoneMap,
    Partition,
    SizeGuardError,
    covering_stability,
    cstar_independent,
    descent_map,
    extended_locality,
    fibered_context_product,
    generated_star_algebra,
    left_adjoint,
    ring_component,
    sheaf_report,
    strong_locality,
    thickening_report,
)
from netsheaf.partitions import coarsenings, common_refinement, overlap_join

from conftest import all_pairs_section_monotone, ambient, random_partitions


def test_fibered_product_square_pair(square_pair):
    a, b = square_pair
    fp = fibered_context_product(AlgebraPair(a, b))
    assert len(fp) == 4  # 2 x 2, matching condition trivial
    assert fp.is_full_product()
    left, right = fp.projection_left(), fp.projection_right()
    assert all(left(e) == e[0] and right(e) == e[1] for e in fp.elements)


def test_fibered_product_diagonal(square_pair):
    a, _ = square_pair
    fp = fibered_context_product(AlgebraPair(a, a, meet_algebra=a))
    assert len(fp) == len(coarsenings(a))
    assert all(c1 == c2 for c1, c2 in fp.elements)


def test_fibered_product_halves(halves_pair):
    left, right = halves_pair
    fp = fibered_context_product(AlgebraPair(left, right))
    assert len(fp) == 4


def test_fibered_product_equals_full_product_under_extended_locality(partitions_by_size):
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                pair = AlgebraPair(a, b)
                fp = fibered_context_product(pair)
                if extended_locality(pair):
                    assert fp.is_full_product()


def test_descent_map_square_pair(square_pair):
    a, b = square_pair
    report = descent_map(AlgebraPair(a, b))
    assert len(report.source) == 15
    assert len(report.target) == 4
    assert report.h.is_surjective()
    assert not report.h.is_injective()
    assert report.adjunction.adjoint_exists
    assert report.adjunction.is_coreflector
    # the adjoint is the refinement join on every element
    for (c1, c2), i in zip(report.target.elements, report.adjunction.adjoint.table):
        assert report.source.elements[i] == common_refinement(c1, c2)


def test_descent_map_full_against_scalars(amb3):
    full = Partition.discrete(amb3)
    scalars = Partition.trivial(amb3)
    report = descent_map(AlgebraPair(full, scalars))
    assert report.adjunction.is_iso
    assert report.h.is_injective() and report.h.is_surjective()


def test_descent_map_halves(halves_pair):
    left, right = halves_pair
    report = descent_map(AlgebraPair(left, right))
    assert len(report.source) == 5
    assert len(report.target) == 4
    assert report.h.is_surjective()
    assert not report.h.is_injective()


def test_descent_requires_partition_engine():
    pauli = AlgebraPair(
        generated_star_algebra(2, [[[1, 0], [0, -1]]]),
        generated_star_algebra(2, [[[0, 1], [1, 0]]]),
    )
    with pytest.raises(EngineError):
        descent_map(pauli)


def test_ring_component_at_squeezed_context(square_pair, amb4):
    a, b = square_pair
    pair = AlgebraPair(a, b)
    c = Partition.from_blocks(amb4, [["a", "d"], ["b"], ["c"]])
    rc = ring_component(c, pair)
    assert rc.injective and not rc.surjective


def test_ring_component_at_joins_of_independent_pair(square_pair):
    a, b = square_pair
    pair = AlgebraPair(a, b)
    for c in coarsenings(a):
        for d in coarsenings(b):
            rc = ring_component(common_refinement(c, d), pair)
            assert rc.is_isomorphism


def test_ring_component_trivial_context(square_pair):
    a, b = square_pair
    rc = ring_component(Partition.trivial(a.ambient), AlgebraPair(a, b))
    assert rc.is_isomorphism


def test_ring_component_rejects_non_context(halves_pair, amb4):
    left, right = halves_pair
    with pytest.raises(InputError):
        ring_component(Partition.trivial(amb4), AlgebraPair(left, right))


def test_ring_components_at_joins_for_cstar_independent_pairs(partitions_by_size):
    # wherever C*-independence holds, every join context carries an isomorphism
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                pair = AlgebraPair(a, b)
                if cstar_independent(pair) is not True:
                    continue
                for c in coarsenings(a)[:4]:
                    for d in coarsenings(b)[:4]:
                        assert ring_component(common_refinement(c, d), pair).is_isomorphism


def test_sheaf_square_pair(square_pair):
    a, b = square_pair
    report = sheaf_report(AlgebraPair(a, b))
    assert report.sheaf is False
    assert report.sheaf_by_characterization is False
    assert report.strong_locality is True
    assert report.unit_law is False


def test_sheaf_trivial_pair(amb3):
    full = Partition.discrete(amb3)
    scalars = Partition.trivial(amb3)
    report = sheaf_report(AlgebraPair(full, scalars))
    assert report.sheaf is True
    assert report.sheaf_by_characterization is True


def test_sheaf_halves_pair(halves_pair):
    left, right = halves_pair
    report = sheaf_report(AlgebraPair(left, right))
    assert report.sheaf is False  # C*-independence fails


def test_sheaf_routes_agree_on_extended_locality_pairs(partitions_by_size):
    # ambient <= 4 here; the acceptance suite pushes this to 5
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                pair = AlgebraPair(a, b)
                if not extended_locality(pair):
                    continue
                report = sheaf_report(pair)  # raises on internal disagreement
                assert report.sheaf == report.sheaf_by_characterization


def test_covering_stability_square_pair(square_pair, amb4):
    a, b = square_pair
    violations = covering_stability(AlgebraPair(a, b))
    assert violations
    witness = Partition.from_blocks(amb4, [["a", "d"], ["b"], ["c"]])
    assert any(
        v.covered == witness and v.left_context == a and v.right_context == b
        for v in violations
    )


def test_covering_stability_trivial_pair(amb3):
    full = Partition.discrete(amb3)
    scalars = Partition.trivial(amb3)
    assert covering_stability(AlgebraPair(full, scalars)) == ()


def test_unit_law_is_the_top_instance_of_stability(partitions_by_size):
    # with C = A and D = B, stability violations exist iff the unit law fails
    from netsheaf import unit_law

    for n in (2, 3):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                pair = AlgebraPair(a, b)
                top_violations = [
                    v
                    for v in covering_stability(pair)
                    if v.left_context == a and v.right_context == b
                ]
                assert bool(top_violations) == (not unit_law(pair))


def test_strong_locality_iff_coreflector_with_trivial_meet(partitions_by_size):
    # the pair-level notion quantifies over all context pairs, which is the
    # descent over the trivial meet (the full product); ambient <= 3 here,
    # acceptance pushes to 5
    for n in (2, 3):
        parts = partitions_by_size[n]
        triv = Partition.trivial(parts[0].ambient)
        for a in parts:
            for b in parts:
                report = descent_map(AlgebraPair(a, b, meet_algebra=triv))
                assert report.adjunction.is_coreflector == strong_locality(
                    AlgebraPair(a, b)
                )
                assert report.thickening.overall == report.adjunction.is_coreflector


def test_counit_identity_iff_strong_locality(square_pair):
    # h o adjoint = identity exactly when the pair is strongly local
    a, b = square_pair
    report = descent_map(AlgebraPair(a, b))
    composed_is_identity = all(
        report.h.table[i] == t for t, i in enumerate(report.adjunction.adjoint.table)
    )
    assert composed_is_identity == report.strong_locality


def test_descent_report_json_shape(square_pair):
    a, b = square_pair
    data = sheaf_report(AlgebraPair(a, b)).to_json()
    assert data["h"]["source_size"] == 15
    assert data["h"]["target_size"] == 4
    assert data["sheaf"] is False
    assert len(data["ring_components"]) == 15
    assert data["adjunction"]["is_coreflector"] is True


@st.composite
def fibered_inputs(draw, max_points=4):
    """(A, B, M) on one ambient set of at most max_points points, M <= A and B."""
    a = draw(random_partitions(1, max_points))
    n = len(a.ambient)
    b = draw(random_partitions(n, n))
    meet = draw(st.sampled_from(coarsenings(overlap_join(a, b))))
    return a, b, meet


@settings(max_examples=80, deadline=None)
@given(fibered_inputs())
def test_hashed_fibered_product_equals_the_nested_scan(inputs):
    a, b, meet = inputs
    left, right = ContextPoset(a), ContextPoset(b)
    scan = sorted(
        (
            (c1, c2)
            for c1 in left.elements
            for c2 in right.elements
            if overlap_join(c1, meet) == overlap_join(c2, meet)
        ),
        key=lambda pair: (pair[0].rgs, pair[1].rgs),
    )
    oracle = FinitePoset(
        scan, lambda x, y: left.leq(x[0], y[0]) and right.leq(x[1], y[1])
    )
    product = FiberedContextProduct(left, right, meet)
    assert product.elements == oracle.elements
    assert product.up == oracle.up


def test_covering_stability_guard_refuses_before_enumerating(monkeypatch):
    # 203^3 triples on the 6-point discrete self-pair: refused before any
    # context poset is built, let alone a triple tested
    def no_enumeration(*args, **kwargs):
        raise AssertionError("contexts enumerated before the triple guard")

    monkeypatch.setattr(netsheaf.descent, "enumerate_contexts", no_enumeration)
    full = Partition.discrete(ambient(6))
    with pytest.raises(SizeGuardError) as err:
        covering_stability(AlgebraPair(full, full))
    assert err.value.requested == 203**3
    assert err.value.bound == MAX_STABILITY_TRIPLES
    assert str(203**3) in str(err.value)
    assert str(MAX_STABILITY_TRIPLES) in str(err.value)


def test_covering_stability_builds_no_context_poset(monkeypatch, square_pair):
    # the sweep reads only the contexts themselves, never their order
    def no_poset(*args, **kwargs):
        raise AssertionError("context poset built for the stability sweep")

    monkeypatch.setattr(netsheaf.descent, "enumerate_contexts", no_poset)
    a, b = square_pair
    assert covering_stability(AlgebraPair(a, b))


def test_covering_stability_guard_admits_five_points():
    # 52^3 = 140,608 triples, the largest sweep the test inputs run
    full = Partition.discrete(ambient(5))
    assert 52**3 <= MAX_STABILITY_TRIPLES
    assert isinstance(covering_stability(AlgebraPair(full, full)), tuple)


# -- one left adjoint per descent map ----------------------------------------------

def test_left_adjoint_runs_once_per_descent_map(monkeypatch, square_pair):
    calls = []
    original = netsheaf.contexts.left_adjoint

    def counting(f):
        calls.append(f)
        return original(f)

    for module in (netsheaf.contexts, netsheaf.descent):
        monkeypatch.setattr(module, "left_adjoint", counting)
    pair = AlgebraPair(*square_pair)
    descent_map(pair)
    assert len(calls) == 1
    sheaf_report(pair)
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(fibered_inputs(max_points=5))
def test_thickening_section_agrees_with_all_pairs_oracle(inputs):
    a, b, meet = inputs
    report = descent_map(AlgebraPair(a, b, meet_algebra=meet))
    assert report.thickening.section_monotone == all_pairs_section_monotone(report.h)
    assert report.thickening.overall == report.adjunction.is_coreflector


def constant_to_top(f):
    """A wrong adjoint for f: every target element to the top of the source."""
    top = f.source.index[max(f.source.elements, key=lambda c: c.num_blocks)]
    return MonotoneMap(f.target, f.source, [top] * len(f.target))


def test_thickening_trap_fires_on_a_sabotaged_adjoint(square_pair):
    report = descent_map(AlgebraPair(*square_pair))
    h, adjunction = report.h, report.adjunction
    assert thickening_report(h, adjunction).overall
    for sabotaged in (
        replace(adjunction, adjoint=constant_to_top(h)),  # a wrong section
        replace(adjunction, is_coreflector=False),  # a wrong verdict
    ):
        with pytest.raises(InternalConsistencyError) as err:
            thickening_report(h, sabotaged)
        assert "thickening section" in str(err.value)
    # a coreflector verdict on a map that is not even surjective
    one, two = (FinitePoset(tuple(range(n)), lambda x, y: x <= y) for n in (1, 2))
    into = MonotoneMap(one, two, [0])
    assert not thickening_report(into, left_adjoint(into)).overall
    with pytest.raises(InternalConsistencyError):
        thickening_report(into, replace(left_adjoint(into), is_coreflector=True))


def test_adjoint_join_trap_fires_on_a_sabotaged_adjoint(monkeypatch, square_pair):
    original = netsheaf.contexts.left_adjoint

    def sabotaged(f):
        return replace(original(f), adjoint=constant_to_top(f))

    monkeypatch.setattr(netsheaf.descent, "left_adjoint", sabotaged)
    with pytest.raises(InternalConsistencyError) as err:
        descent_map(AlgebraPair(*square_pair))
    assert "algebraic join" in str(err.value)


def test_adjunction_law_trap_fires_on_a_wrong_adjoint(square_pair):
    h = descent_map(AlgebraPair(*square_pair)).h
    with pytest.raises(InternalConsistencyError) as err:
        netsheaf.contexts._assert_adjunction_law(h, constant_to_top(h))
    assert "adjunction law" in str(err.value)


# -- the fibered-product guard -----------------------------------------------------

def test_fibered_product_guard_refuses_before_any_poset(monkeypatch):
    # two full algebras on 6 points over the scalars: 203^2 = 41,209 pairs
    def no_poset(*args, **kwargs):
        raise AssertionError("poset built before the fibered-product guard")

    monkeypatch.setattr(netsheaf.contexts.FinitePoset, "__init__", no_poset)
    full = Partition.discrete(ambient(6))
    pair = AlgebraPair(full, full, meet_algebra=Partition.trivial(full.ambient))
    for build in (fibered_context_product, descent_map, sheaf_report):
        with pytest.raises(SizeGuardError) as err:
            build(pair)
        assert err.value.requested == 203**2
        assert err.value.bound == MAX_FIBERED_ELEMENTS
        assert str(203**2) in str(err.value)
        assert str(MAX_FIBERED_ELEMENTS) in str(err.value)


def test_fibered_product_guard_admits_the_constant_seven_point_net():
    # the diagonal of C_A x C_A over M = A: Bell(7) = 877 elements
    full = Partition.discrete(ambient(7))
    product = fibered_context_product(AlgebraPair(full, full, meet_algebra=full))
    assert len(product) == 877 <= MAX_FIBERED_ELEMENTS
