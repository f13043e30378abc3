import inspect
import json
import sys
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import netsheaf.contexts
import netsheaf.descent
import netsheaf.independence
import netsheaf.jsontext
import netsheaf.partitions
from netsheaf import (
    MAX_FIBERED_ELEMENTS,
    MAX_STABILITY_TRIPLES,
    AlgebraPair,
    AmbientSet,
    ContextPoset,
    Contexts,
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
from netsheaf.cli import main
from netsheaf.jsontext import json_parts
from netsheaf.contexts import _comparable_pairs, block_map
from netsheaf.partitions import (
    _overlap_rgs,
    _rgs_completions,
    _rgs_rank,
    _set_partition_rgs,
    all_partitions,
    bell_number,
    coarsenings,
    common_refinement,
    is_coarser,
    iter_coarsenings,
    overlap_join,
)

from conftest import (
    FIXTURES,
    all_pairs_section_monotone,
    ambient,
    monotone_map_from_function,
    oracle_adjunction_certificate,
    oracle_covering_stability,
    oracle_descent_json,
    oracle_h_table,
    poset_leq,
    random_partitions,
)


def test_fibered_product_square_pair(square_pair):
    a, b = square_pair
    fp = fibered_context_product(AlgebraPair(a, b))
    assert len(fp) == 4  # 2 x 2, matching condition trivial
    assert set(fp.elements) == {(c1, c2) for c1 in coarsenings(a) for c2 in coarsenings(b)}
    assert (fp.left_poset.algebra, fp.right_poset.algebra) == (a, b)


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
                    assert len(fp) == len(coarsenings(a)) * len(coarsenings(b))


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
    assert report.hierarchy.strong_locality is True
    assert report.hierarchy.unit_law is False


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
    assert composed_is_identity == report.hierarchy.strong_locality


def test_descent_report_json_shape(square_pair):
    a, b = square_pair
    data = json.loads("".join(json_parts(sheaf_report(AlgebraPair(a, b)).to_json())))
    assert data["h"]["source_size"] == 15
    assert data["h"]["target_size"] == 4
    assert data["sheaf"] is False
    assert len(data["ring_components"]) == 15
    assert data["adjunction"]["is_coreflector"] is True


def test_descent_json_renders_as_json_dumps_of_the_report_dicts(monkeypatch):
    # every (A, B, M <= A n B) on at most three points, with and without ring
    # components, the report alone and nested at the depth `check-net
    # --json` writes it, with the C encoder and with the pure-Python one
    c_encoder = netsheaf.jsontext.c_make_encoder
    for n in range(1, 4):
        contexts = all_partitions(ambient(n))
        for a in contexts:
            for b in contexts:
                for meet in coarsenings(overlap_join(a, b)):
                    pair = AlgebraPair(a, b, meet_algebra=meet)
                    for report in (descent_map(pair), sheaf_report(pair)):
                        expected = oracle_descent_json(report)
                        for wrap in (lambda v: v, lambda v: {"pairs": [{"descent": v}]}):
                            text = json.dumps(wrap(expected), indent=2)
                            for encoder in (c_encoder, None):
                                monkeypatch.setattr(netsheaf.jsontext, "c_make_encoder", encoder)
                                assert "".join(json_parts(wrap(report.to_json()))) == text


@st.composite
def fibered_inputs(draw, max_points=4, min_points=1):
    """(A, B, M) on one ambient set of min_points to max_points points,
    M <= A and B."""
    a = draw(random_partitions(min_points, max_points))
    n = len(a.ambient)
    b = draw(random_partitions(n, n))
    meet = draw(st.sampled_from(coarsenings(overlap_join(a, b))))
    return a, b, meet


@settings(max_examples=40, deadline=None)
@given(fibered_inputs(max_points=6, min_points=4))
@example((  # 52 * 203 = 10,556 fibered elements: refused by the product guard
    Partition(ambient(6), (0, 0, 1, 2, 3, 4)),
    Partition.discrete(ambient(6)),
    Partition.trivial(ambient(6)),
))
def test_descent_json_renders_the_report_dicts_up_to_six_points(inputs):
    a, b, meet = inputs
    try:
        report = sheaf_report(AlgebraPair(a, b, meet_algebra=meet))
    except SizeGuardError as err:
        assert err.bound == MAX_FIBERED_ELEMENTS
        assume(False)
    text = "".join(json_parts(report.to_json()))
    assert text == json.dumps(oracle_descent_json(report), indent=2)


@settings(max_examples=80, deadline=None)
@given(fibered_inputs())
def test_hashed_fibered_product_equals_the_nested_scan(inputs):
    # the product on Contexts factors, ordered by refinement, against a
    # nested scan ordered through the factors' context-poset masks
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
        scan, lambda x, y: poset_leq(left, x[0], y[0]) and poset_leq(right, x[1], y[1])
    )
    product = FiberedContextProduct(Contexts(a), Contexts(b), meet)
    assert product.elements == oracle.elements
    assert product.covers() == oracle.covers()


def test_covering_stability_guard_refuses_before_enumerating(monkeypatch):
    # 203^3 triples on the 6-point discrete self-pair: refused before any
    # context is enumerated, let alone a triple tested
    def no_enumeration(*args, **kwargs):
        raise AssertionError("contexts enumerated before the triple guard")

    monkeypatch.setattr(netsheaf.descent, "coarsenings", no_enumeration, raising=False)
    monkeypatch.setattr(netsheaf.contexts, "coarsenings", no_enumeration)
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

    monkeypatch.setattr(netsheaf.contexts.FinitePoset, "__init__", no_poset)
    a, b = square_pair
    assert covering_stability(AlgebraPair(a, b))


@settings(max_examples=60, deadline=None)
@given(fibered_inputs(max_points=5))
@example((Partition.discrete(ambient(5)), Partition.discrete(ambient(5)), None))
def test_covering_stability_equals_the_triple_loop(inputs):
    # the unit law of each cover (C, D) finds exactly the failing E <= C v D
    # that testing every (E, C, D) finds, in the same order
    a, b, _ = inputs
    pair = AlgebraPair(a, b)
    assert covering_stability(pair) == oracle_covering_stability(pair)


def test_covering_stability_equals_the_triple_loop_on_every_small_pair():
    # all 1 + 4 + 25 + 225 ordered pairs of partitions on at most 4 points
    pairs = 0
    for n in range(1, 5):
        partitions = all_partitions(ambient(n))
        for a in partitions:
            for b in partitions:
                pair = AlgebraPair(a, b)
                assert covering_stability(pair) == oracle_covering_stability(pair), pair
                pairs += 1
    assert pairs == 255


def test_covering_stability_adds_no_partition_cache_entry():
    # the discrete 5-point self-pair visits 78,872 contexts; the sweep reads
    # only the pair's join and the three context lists, which every descent
    # path computes first, and adds no entry to any partition cache
    full = Partition.discrete(ambient(5))
    caches = (common_refinement, overlap_join, is_coarser, coarsenings)
    for cache in caches:
        cache.cache_clear()
    pair = AlgebraPair(full, full)  # its default meet is one overlap join
    joined = common_refinement(full, full)
    for p in (joined, full):
        coarsenings(p)
    before = [cache.cache_info().currsize for cache in caches]
    assert covering_stability(pair)
    assert [cache.cache_info().currsize for cache in caches] == before


@settings(max_examples=150, deadline=None)
@given(fibered_inputs(max_points=6))
def test_block_string_h_table_equals_the_partition_route(inputs):
    a, b, meet = inputs
    pair = AlgebraPair(a, b, meet_algebra=meet)
    try:
        target = fibered_context_product(pair)
    except SizeGuardError:
        assume(False)
    source = Contexts(common_refinement(a, b))
    table = netsheaf.descent._h_table(pair, source, target)
    assert table == oracle_h_table(pair, source, target)


def test_descent_map_adds_no_overlap_join_per_context():
    # grid 2x4: 4,140 contexts of A v B, but only the factors' restrictions
    # to M, one per context of A and of B, enter the overlap-join cache
    amb = AmbientSet([f"x{i}y{j}" for i in range(2) for j in range(4)])
    a = Partition(amb, [i for i in range(2) for _ in range(4)])
    b = Partition(amb, [j for _ in range(2) for j in range(4)])
    pair = AlgebraPair(a, b)
    overlap_join.cache_clear()
    report = descent_map(pair)
    assert len(report.source) == 4140
    assert overlap_join.cache_info().currsize <= len(coarsenings(a)) + len(coarsenings(b))


def test_ring_component_trap_fires_on_an_image_outside_the_fibered_blocks(
    monkeypatch, tmp_path, capsys, square_pair
):
    monkeypatch.setattr(netsheaf.descent, "_fibered_blocks", lambda left, right: set())
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert "ring component's spectrum map leaves the fibered product of block sets" in err
    assert '"context": "{a,b,c,d}"' in err


def test_sheaf_route_trap_names_every_context_by_its_label(monkeypatch):
    # the scalars against the full 3-point algebra are a sheaf under
    # extended locality; with every ring component forced to fail, the
    # direct route disagrees and the dump lists them by context label
    amb = ambient(3)
    full = Partition.discrete(amb)
    pair = AlgebraPair(Partition.trivial(amb), full)
    assert sheaf_report(pair).sheaf is True
    failing = netsheaf.descent.RingComponent(injective=False, surjective=True)
    monkeypatch.setattr(netsheaf.descent, "_ring_components",
                        lambda report: (failing,) * len(report.source))
    with pytest.raises(InternalConsistencyError, match="sheaf decision routes disagree") as exc:
        sheaf_report(pair)
    components = exc.value.dump["ring_components"]
    assert list(components) == [str(c) for c in coarsenings(full)]
    assert all(rc == failing.to_json() for rc in components.values())


@settings(max_examples=60, deadline=None)
@given(fibered_inputs(max_points=5))
def test_ring_components_read_off_h_equal_the_public_route(inputs):
    a, b, meet = inputs
    pair = AlgebraPair(a, b, meet_algebra=meet)
    report = sheaf_report(pair)
    assert report.ring_components == tuple(
        ring_component(c, pair) for c in report.source.elements
    )


def test_covering_stability_guard_admits_five_points():
    # 52^3 = 140,608 triples, the largest sweep the test inputs run
    full = Partition.discrete(ambient(5))
    assert 52**3 <= MAX_STABILITY_TRIPLES
    assert isinstance(covering_stability(AlgebraPair(full, full)), tuple)


# -- the descent map in closed form --------------------------------------------

def generic_descent(pair):
    """The generic route: h as a MonotoneMap between mask-built posets, its
    left adjoint by the least-element scan, then the fiber-minimum section.
    The product's order comes from the factors' context-poset masks."""
    source = ContextPoset(common_refinement(pair.left, pair.right))
    product = fibered_context_product(pair)
    left, right = (ContextPoset(f.algebra) for f in (product.left_poset, product.right_poset))
    target = FinitePoset(
        product.elements,
        lambda x, y: poset_leq(left, x[0], y[0]) and poset_leq(right, x[1], y[1]),
    )
    h = monotone_map_from_function(
        source, target, lambda c: (overlap_join(c, pair.left), overlap_join(c, pair.right))
    )
    adjunction = left_adjoint(h)
    return source, target, h, adjunction, thickening_report(h, adjunction)


@settings(max_examples=200, deadline=None)
@given(fibered_inputs(max_points=6))
def test_closed_form_equals_the_generic_route(inputs):
    a, b, meet = inputs
    pair = AlgebraPair(a, b, meet_algebra=meet)
    try:
        report = descent_map(pair)
    except SizeGuardError:
        assume(False)
    assume(len(report.target) <= 400)  # the generic route is quadratic in it
    source, target, h, adjunction, thickening = generic_descent(pair)
    assert report.source.elements == source.elements
    assert report.target.elements == target.elements
    assert report.h.table == h.table
    assert report.source.covers() == source.covers()
    assert report.target.covers() == target.covers()
    closed = report.adjunction
    assert closed.adjoint.table == adjunction.adjoint.table
    for field in ("adjoint_exists", "unit_strict", "counit_strict", "is_coreflector",
                  "is_iso", "missing_least"):
        assert getattr(closed, field) == getattr(adjunction, field), field
    assert report.thickening == thickening
    assert report.thickening.section_monotone == all_pairs_section_monotone(h)
    assert report.thickening.overall == closed.is_coreflector


def test_a_fibered_product_cover_can_move_both_coordinates_by_several_covers():
    # why g's monotonicity is not checked along covers: with M = {0,1}{2,3}{4,5}{6,7}
    # and A = B = the full algebra, x = (x1, x2) is covered by the all-singletons
    # pair y, although each coordinate moves up three covers: a refinement of
    # x1 and one of x2 strictly between never restrict to the same context of M
    amb = ambient(8)
    meet = Partition(amb, (0, 0, 1, 1, 2, 2, 3, 3))
    x1 = Partition(amb, (0, 1, 0, 2, 2, 3, 3, 4))  # {0,2}{1}{3,4}{5,6}{7}
    x2 = Partition(amb, (0, 1, 2, 3, 1, 4, 2, 0))  # {0,7}{1,4}{2,6}{3}{5}
    top = Partition.discrete(amb)
    assert overlap_join(x1, meet) == overlap_join(x2, meet) == Partition.trivial(amb)

    def between(x):
        return [c for c in all_partitions(amb) if is_coarser(x, c)]

    interval = [
        (e, f)
        for e in between(x1)
        for f in between(x2)
        if overlap_join(e, meet) == overlap_join(f, meet)
    ]
    assert sorted(interval, key=str) == sorted([(x1, x2), (top, top)], key=str)
    assert top.num_blocks - x1.num_blocks == top.num_blocks - x2.num_blocks == 3


def test_descent_map_builds_no_join_poset_product_masks_or_adjoint_scan(
    monkeypatch, square_pair
):
    def forbidden(*args, **kwargs):
        raise AssertionError("order masks or a generic adjunction scan on the descent path")

    # no poset with masks at all: not C_{A v B}, not the product, not its factors
    monkeypatch.setattr(FinitePoset, "__init__", forbidden)
    for module in (netsheaf.contexts, netsheaf.descent):
        for name in ("left_adjoint", "_assert_adjunction_law"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    a, b = square_pair
    report = sheaf_report(AlgebraPair(a, b))
    assert report.adjunction.adjoint_exists


def run_net(tmp_path, capsys, left, right, meet):
    """`check-net --json` on the four-region net O1 = left, O2 = right over
    the bottom region meet: it runs the descent map of that pair."""
    names = {"bottom": meet, "O1": left, "O2": right, "top": common_refinement(left, right)}
    doc = {
        "ambient": list(left.ambient.points),
        "algebras": {name: p.to_json() for name, p in names.items()},
        "net": {
            "regions": list(names),
            "leq": [["bottom", "O1"], ["bottom", "O2"], ["O1", "top"], ["O2", "top"]],
            "spacelike": [["O1", "O2"]],
            "assignment": {name: name for name in names},
        },
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code = main(["check-net", str(path), "--json"])
    return code, capsys.readouterr().err


def square_net(square_pair):
    a, b = square_pair
    return a, b, Partition.trivial(a.ambient)


def full_self_pair_over_scalars():
    # C_A x C_A over the scalars: h(C) = (C, C) misses every pair (C, D), C != D
    full = Partition.discrete(ambient(3))
    return full, full, Partition.trivial(full.ambient)


def sabotage_table(monkeypatch, name, change):
    original = getattr(netsheaf.descent, name)

    def sabotaged(*args):
        *_, source, target = args
        table = original(*args)
        change(table, source, target)
        return table

    monkeypatch.setattr(netsheaf.descent, name, sabotaged)


def sabotage_kernel(monkeypatch, module, caller, change):
    """The restriction kernel, as the function `caller` of `module` calls
    it, returns its rows passed through change(rows); every other caller,
    in that module too, reads them as made."""
    kernel = module._restrictions

    def sabotaged(contexts, blocks):
        rows = kernel(contexts, blocks)
        return change(rows) if sys._getframe(1).f_code.co_name == caller else rows

    monkeypatch.setattr(module, "_restrictions", sabotaged)


def swap_ends(rows):
    rows[0], rows[-1] = rows[-1], rows[0]
    return rows


H_NOT_EXACT = "descent map has no left adjoint: h(C) != (C n A, C n B)"
G_NOT_JOIN = "computed left adjoint differs from the algebraic join"


def test_certificate_traps_a_non_monotone_h(monkeypatch, tmp_path, capsys, square_pair):
    # h({a}{b}{c,d}) := (trivial, trivial): the unit and counit checks still
    # hold there (that context is no join g(q)), but h({a,b}{c,d}) is larger;
    # the exactness check names the edited row
    def change(table, source, target):
        table[source.elements.index(Partition(square_pair[0].ambient, (0, 1, 2, 2)))] = 0

    sabotage_table(monkeypatch, "_h_table", change)
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert H_NOT_EXACT in err and '"context": "{a}{b}{c,d}"' in err


def test_certificate_traps_a_failed_unit(monkeypatch, tmp_path, capsys, square_pair):
    # g(A, B) := trivial, so h(g(A, B)) = (trivial, trivial) lies below (A, B);
    # h is exact, so the join check on g fires
    sabotage_table(monkeypatch, "_g_table", lambda table, source, target: table.__setitem__(-1, 0))
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert H_NOT_EXACT not in err and G_NOT_JOIN in err


def test_certificate_traps_a_failed_counit(monkeypatch, tmp_path, capsys, square_pair):
    # g(trivial, trivial) := the top context, which is not below h^-1 of it;
    # h is exact, so the join check on g fires
    def change(table, source, target):
        table[0] = len(source) - 1

    sabotage_table(monkeypatch, "_g_table", change)
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert H_NOT_EXACT not in err and G_NOT_JOIN in err


def grid_net(p, q):
    """A on the rows of a p x q grid, B on its columns, over the scalars."""
    amb = AmbientSet([f"x{i}y{j}" for i in range(p) for j in range(q)])
    a = Partition(amb, [i for i in range(p) for _ in range(q)])
    b = Partition(amb, [j for _ in range(p) for j in range(q)])
    return a, b, Partition.trivial(amb)


def test_certificate_traps_an_h_entry_past_the_fibered_product(monkeypatch, tmp_path, capsys):
    # h(last context) := len(target), an index one past the product
    sabotage_table(monkeypatch, "_h_table",
                   lambda table, source, target: table.__setitem__(-1, len(target)))
    code, err = run_net(tmp_path, capsys, *grid_net(2, 3))
    assert code == 3
    assert "h names no element of the fibered product" in err
    assert '"context": "{x0y0}{x0y1}{x0y2}{x1y0}{x1y1}{x1y2}"' in err
    assert '"h": "10"' in err and '"product_size": "10"' in err


def test_certificate_traps_a_g_entry_past_the_contexts_of_the_join(monkeypatch, tmp_path,
                                                                  capsys):
    # g(last product element) := len(source), an index one past C_{A v B}
    sabotage_table(monkeypatch, "_g_table",
                   lambda table, source, target: table.__setitem__(-1, len(source)))
    code, err = run_net(tmp_path, capsys, *grid_net(2, 3))
    assert code == 3
    assert "g names no context of A v B" in err and '"contexts": "203"' in err


def test_exactness_trap_fires_on_swapped_join_strings(monkeypatch, capsys):
    # the restrictions of the first and last contexts of A v B swapped as
    # the restriction kernel returns them to `_h_table`: h(C*1) becomes
    # (A, B), which the certificate's own route, one union-find per side on
    # each context's point string, does not confirm
    sabotage_kernel(monkeypatch, netsheaf.descent, "_h_table", swap_ends)
    code = main(["descent", str(FIXTURES / "square_pair.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert H_NOT_EXACT in err and '"context": "{a,b,c,d}"' in err


def certificate_rejects(pair, source, target, h, g) -> bool:
    try:
        netsheaf.descent._certify_adjunction(pair, source, target, h, g)
    except InternalConsistencyError:
        return True
    return False


def descent_tables(pair):
    source = Contexts(common_refinement(pair.left, pair.right))
    target = fibered_context_product(pair)
    h = netsheaf.descent._h_table(pair, source, target)
    return source, target, h, netsheaf.descent._g_table(source, target)


def edited_tables(source, target, h, g):
    """Every (h, g) that differs from the given tables in one entry."""
    for i, value in enumerate(h):
        for other in range(len(target)):
            if other != value:
                yield h[:i] + [other] + h[i + 1:], g
    for i, value in enumerate(g):
        for other in range(len(source)):
            if other != value:
                yield h, g[:i] + [other] + g[i + 1:]


def test_exactness_certificate_rejects_what_the_order_checks_reject_up_to_three_points():
    # every (A, B, M <= A n B) on at most three points: the real tables,
    # which both certificates accept, and every single-entry edit of them
    cases = 0
    for n in range(1, 4):
        contexts = all_partitions(ambient(n))
        for a in contexts:
            for b in contexts:
                for meet in coarsenings(overlap_join(a, b)):
                    pair = AlgebraPair(a, b, meet_algebra=meet)
                    source, target, h, g = descent_tables(pair)
                    assert oracle_adjunction_certificate(pair, source, target, h, g) is None
                    assert not certificate_rejects(pair, source, target, h, g)
                    cases += 1
                    for edited in edited_tables(source, target, h, g):
                        oracle = oracle_adjunction_certificate(pair, source, target, *edited)
                        assert certificate_rejects(pair, source, target, *edited) == (
                            oracle is not None
                        )
                        cases += 1
    assert cases == 1744


@settings(max_examples=60, deadline=None)
@given(fibered_inputs(max_points=5, min_points=4), st.data())
def test_exactness_certificate_rejects_what_the_order_checks_reject(inputs, data):
    a, b, meet = inputs
    pair = AlgebraPair(a, b, meet_algebra=meet)
    source, target, h, g = descent_tables(pair)
    side = data.draw(st.sampled_from(["h", "g"]))
    table, size = (h, len(target)) if side == "h" else (g, len(source))
    i = data.draw(st.integers(0, len(table) - 1))
    edited = table[:i] + [data.draw(st.integers(0, size - 1))] + table[i + 1:]
    tables = (edited, g) if side == "h" else (h, edited)
    oracle = oracle_adjunction_certificate(pair, source, target, *tables)
    assert certificate_rejects(pair, source, target, *tables) == (oracle is not None)


def test_meet_block_total_equals_the_brute_force_sum_up_to_six_points():
    # the sum over the contexts C of J of the blocks of C n A, for every A
    # coarser than J and every J on at most six points, by one union-find
    # per C on point strings, against the closed form over J's blocks
    total = netsheaf.descent._meet_block_total
    cases = 0
    for n in range(1, 7):
        for j in all_partitions(ambient(n)):
            contexts = [c.rgs for c in iter_coarsenings(j)]
            for a in iter_coarsenings(j):
                brute = sum(max(_overlap_rgs(c, a.rgs)) + 1 for c in contexts)
                assert total(block_map(a, j)) == brute
                cases += 1
    assert cases == sum(_comparable_pairs(n) for n in range(1, 7))


def test_meet_block_total_of_the_algebra_itself():
    # A = J: the blocks of every context of an n-block algebra add up to
    # Bell(n + 1) - Bell(n)
    for n in range(1, 11):
        blocks = tuple(range(n))
        assert netsheaf.descent._meet_block_total(blocks) == bell_number(n + 1) - bell_number(n)


COUNT_FAILS = "the union-find walk finds h exact, but its counting certificate fails"


def coarser_h_at_the_top(monkeypatch, square_pair):
    """h(top) := (trivial, B) on the square pair: the top context refines
    both coordinates, so only the block count on A's side can catch it."""
    a, b = square_pair
    trivial, top = Partition.trivial(a.ambient), common_refinement(a, b)
    assert is_coarser(trivial, top) and is_coarser(b, top) and trivial != overlap_join(top, a)

    def change(table, source, target):
        table[source.elements.index(top)] = target.elements.index((trivial, b))

    sabotage_table(monkeypatch, "_h_table", change)


def test_block_count_traps_an_h_edited_to_a_coarser_element(
    monkeypatch, tmp_path, capsys, square_pair
):
    coarser_h_at_the_top(monkeypatch, square_pair)
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert H_NOT_EXACT in err and '"context": "{a}{b}{c}{d}"' in err
    # with the walk made to find nothing, the count is what fails: one
    # block short on A's side, the second block of A at the top
    monkeypatch.setattr(netsheaf.descent, "_first_inexact", lambda *args: None)
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3 and H_NOT_EXACT not in err and COUNT_FAILS in err
    dump = json.loads(err.split("\n", 1)[1])
    closed = netsheaf.descent._meet_block_total((0, 0, 1, 1))
    assert (dump["side"], dump["counted"], dump["closed_form"]) == (
        "C n A", str(closed - 1), str(closed)
    )


def test_block_count_traps_a_wrong_closed_form(monkeypatch, tmp_path, capsys, square_pair):
    # h is exact, so the walk finds no inexact context, and the count trap
    # names the side whose closed form is off
    total = netsheaf.descent._meet_block_total
    monkeypatch.setattr(netsheaf.descent, "_meet_block_total", lambda blocks: total(blocks) + 1)
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert H_NOT_EXACT not in err and COUNT_FAILS in err
    dump = json.loads(err.split("\n", 1)[1])
    assert (dump["side"], int(dump["closed_form"])) == ("C n A", int(dump["counted"]) + 1)


@st.composite
def h_edits(draw, max_points=5):
    """(A, B, M) on at most max_points points with h edited at one to three
    contexts, each to any product element or to one componentwise coarser
    than h(C), which the refinement test alone does not reject."""
    pair = AlgebraPair(*draw(fibered_inputs(max_points=max_points)))
    source, target, h, g = descent_tables(pair)
    elements = target.elements
    edited = list(h)
    for k in draw(st.lists(st.integers(0, len(h) - 1), min_size=1, max_size=3)):
        x1, x2 = elements[h[k]]
        coarser = [q for q, (y1, y2) in enumerate(elements)
                   if is_coarser(y1, x1) and is_coarser(y2, x2)]
        edited[k] = draw(st.sampled_from(coarser) | st.integers(0, len(target) - 1))
    return pair, source, target, edited, g


@settings(max_examples=150, deadline=None)
@given(h_edits())
def test_block_count_rejects_what_the_union_find_walk_rejects(inputs):
    pair, source, target, h, g = inputs
    walk = netsheaf.descent._first_inexact(pair, source, target, h)
    assert certificate_rejects(pair, source, target, h, g) == (walk is not None)
    assert (walk is None) == (h == oracle_h_table(pair, source, target))


@st.composite
def coarser_pairs(draw, max_points=7):
    """(X, P) on one to max_points points with P coarser than X: X's blocks
    regrouped by a drawn grouping, one block for either of them included."""
    x = draw(random_partitions(1, max_points) | st.builds(
        lambda n: Partition.trivial(ambient(n)), st.integers(1, max_points)))
    k = x.num_blocks
    grouping = draw(st.just((0,) * k) | st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    return x, Partition(x.ambient, [grouping[b] for b in x.rgs])


@settings(max_examples=150, deadline=None)
@given(coarser_pairs(), st.integers(0, bell_number(7) - 1))
@example((Partition.trivial(ambient(1)),) * 2, 0)
@example((Partition.discrete(ambient(7)), Partition.trivial(ambient(7))), 0)
@example((Partition.discrete(ambient(7)),) * 2, 0)
@example((Partition.discrete(ambient(7)),) * 2, bell_number(7) - 1)
def test_restriction_kernel_equals_one_union_find_per_context(inputs, k):
    # C n P over P's blocks for every context C of X, against the overlap
    # join of C's point string with P's, read at the first point of each
    # block of P.  P goes in as its block map over X, and so does the
    # drawn context Q of P, read over X's blocks (`Contexts.over`), as
    # covering stability passes each context of A to the kernel
    x, p = inputs
    k %= bell_number(p.num_blocks)
    q = coarsenings(p)[k]
    for r, blocks in ((p, block_map(p, x)), (q, list(Contexts(p).over(x))[k])):
        firsts = [block[0] for block in r.blocks]
        expected = [tuple(_overlap_rgs(c.rgs, r.rgs)[f] for f in firsts) for c in coarsenings(x)]
        assert netsheaf.contexts._restrictions(Contexts(x), blocks) == expected


def test_rank_of_each_restricted_growth_string_is_its_index_up_to_eight():
    for n in range(1, 9):
        completions = _rgs_completions(n)
        assert [_rgs_rank(s, completions) for s in _set_partition_rgs(n)] == list(range(
            bell_number(n)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-1, n), min_size=n - 1, max_size=n + 1))))
def test_rank_refuses_exactly_the_strings_that_are_no_context(inputs):
    n, s = inputs
    rgs = len(s) == n and all(0 <= v <= max(s[:i], default=-1) + 1 for i, v in enumerate(s))
    assert (_rgs_rank(s, _rgs_completions(n)) is not None) == rgs


@settings(max_examples=60, deadline=None)
@given(fibered_inputs(max_points=5), st.data())
def test_g_table_traps_a_join_that_is_no_context_of_the_join(inputs, data):
    # the join at one drawn element of the product replaced by a drawn
    # string that is not a restricted-growth string of the right length:
    # `_g_table` names that element
    pair = AlgebraPair(*inputs)
    source = Contexts(common_refinement(pair.left, pair.right))
    target = fibered_context_product(pair)
    n = source.algebra.num_blocks
    q = data.draw(st.integers(0, len(target) - 1))
    bad = data.draw(st.lists(st.integers(-1, n), min_size=n - 1, max_size=n + 1).filter(
        lambda s: _rgs_rank(s, _rgs_completions(n)) is None))
    canonical, calls = netsheaf.descent._canonical_rgs, []

    def corrupted(labels):
        calls.append(None)
        return tuple(bad) if len(calls) == q + 1 else canonical(labels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netsheaf.descent, "_canonical_rgs", corrupted)
        with pytest.raises(InternalConsistencyError) as err:
            netsheaf.descent._g_table(source, target)
    c1, c2 = target.elements[q]
    assert "g(C1, C2) = C1 v C2 is not a context of A v B" in str(err.value)
    assert err.value.dump["target_element"] == f"({c1}, {c2})"


def test_descent_command_builds_the_fibered_product_once(monkeypatch, capsys):
    # `guard_descent` builds C_A x_M C_B for its guard and hands it to
    # `sheaf_report`, text and --json alike
    built = []
    init = FiberedContextProduct.__init__

    def counted(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(FiberedContextProduct, "__init__", counted)
    for extra in ([], ["--json"]):
        built.clear()
        assert main(["descent", str(FIXTURES / "square_pair.json"), *extra]) == 0
        assert len(built) == 1
    capsys.readouterr()


def test_h_table_traps_a_pair_outside_the_product(monkeypatch, capsys):
    # C n A and C n B, as the restriction kernel returns them to `_h_table`,
    # resolved to strings that are not restricted-growth, so the pair is no
    # element of C_A x_M C_B: exit 3 naming the context
    def reversed_labels(rows):
        return [tuple(range(len(row)))[::-1] for row in rows]

    sabotage_kernel(monkeypatch, netsheaf.descent, "_h_table", reversed_labels)
    assert main(["descent", str(FIXTURES / "square_pair.json")]) == 3
    err = capsys.readouterr().err
    assert "h(C) = (C n A, C n B) is not an element of the fibered context product" in err
    assert '"context": "{a,b,c,d}"' in err and '"restrictions": "((1, 0), (1, 0))"' in err


def test_g_table_traps_a_join_outside_the_contexts_of_the_join(monkeypatch, capsys):
    # every join relabelled from 1, so no string of A v B matches: exit 3
    # naming the first element of the product
    canonical = netsheaf.descent._canonical_rgs
    monkeypatch.setattr(
        netsheaf.descent, "_canonical_rgs", lambda labels: tuple(x + 1 for x in canonical(labels))
    )
    assert main(["descent", str(FIXTURES / "square_pair.json")]) == 3
    err = capsys.readouterr().err
    assert "g(C1, C2) = C1 v C2 is not a context of A v B" in err
    assert '"target_element": "({a,b,c,d}, {a,b,c,d})"' in err


def test_unit_law_trap_fires_on_a_forced_mismatch(monkeypatch, tmp_path, capsys, square_pair):
    # the unit-law decision says "comparable", though h's unit is strict
    monkeypatch.setattr(netsheaf.independence, "unit_law", lambda pair, max_bell=None: True)
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert "unit law disagrees with the unit of the descent adjunction" in err


def test_unit_law_count_trap_fires_on_a_wrong_count(monkeypatch, tmp_path, capsys, square_pair):
    # the witness search miscounts by one: the verdict still agrees with
    # h's unit, but not the number of contexts where the unit is strict
    failures = netsheaf.independence._unit_law_failures

    def off_by_one(a, b):
        count, first = failures(a, b)
        return count + 1, first + first[-1:]  # a list as long as the count

    monkeypatch.setattr(netsheaf.independence, "_unit_law_failures", off_by_one)
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert "unit-law witness count disagrees with the unit of the descent adjunction" in err


def test_strong_locality_trap_fires_without_a_coreflector(monkeypatch, tmp_path, capsys):
    # A = {a,b}{c,d}, B = {a,c}{b}{d}: extended locality holds, so a forced
    # strong-locality verdict passes the implication chain, and h is not a
    # coreflector
    monkeypatch.setattr(
        netsheaf.independence, "strong_locality", lambda pair, max_bell=None: True
    )
    amb = ambient(4)
    left = Partition.from_blocks(amb, [["a", "b"], ["c", "d"]])
    right = Partition.from_blocks(amb, [["a", "c"], ["b"], ["d"]])
    code, err = run_net(tmp_path, capsys, left, right, Partition.trivial(amb))
    assert code == 3
    assert "strong locality holds but the descent map is not a coreflector" in err


def test_strong_locality_sweep_trap_fires_when_no_witness_is_found(
    monkeypatch, tmp_path, capsys
):
    # the block graph of A = {a,b}{c,d}, B = {a,c}{b}{d} says strong locality
    # fails ({b} and {d} meet no common A-block); the sweep is made to find
    # no failing pair of contexts
    monkeypatch.setattr(netsheaf.independence, "_strong_locality_witness", lambda a, b: None)
    amb = ambient(4)
    left = Partition.from_blocks(amb, [["a", "b"], ["c", "d"]])
    right = Partition.from_blocks(amb, [["a", "c"], ["b"], ["d"]])
    code, err = run_net(tmp_path, capsys, left, right, Partition.trivial(amb))
    assert code == 3
    assert "strong locality fails on the block graph, but no pair of contexts violates it" in err


def test_unit_law_witness_trap_fires_on_an_empty_join_image(
    monkeypatch, tmp_path, capsys, square_pair
):
    # the square pair takes the join-image route (2 * 2 <= Bell(4)), made to
    # find no failing context on an incomparable pair
    monkeypatch.setattr(netsheaf.independence, "_join_image_failures", lambda a, b: (0, ()))
    code, err = run_net(tmp_path, capsys, *square_net(square_pair))
    assert code == 3
    assert "the unit law fails on an incomparable pair, but the witness search counts 0" in err


def test_unit_law_witness_trap_fires_on_an_empty_sweep(monkeypatch, tmp_path, capsys):
    # {a,b}{c}{d} against {a}{b,c}{d} takes the sweep route (Bell(3)^2 > Bell(4))
    monkeypatch.setattr(netsheaf.independence, "_sweep_failures", lambda a, b: (0, ()))
    amb = ambient(4)
    left = Partition.from_blocks(amb, [["a", "b"], ["c"], ["d"]])
    right = Partition.from_blocks(amb, [["a"], ["b", "c"], ["d"]])
    code, err = run_net(tmp_path, capsys, left, right, Partition.trivial(amb))
    assert code == 3
    assert "the unit law fails on an incomparable pair, but the witness search counts 0" in err


def test_unit_law_witness_trap_fires_on_an_empty_shared_sweep(monkeypatch, capsys):
    # the restrictions that the hierarchy's sweep branch reads stop after
    # the bottom context, which never fails, so the sweep stops there too
    sabotage_kernel(monkeypatch, netsheaf.independence, "_sweep_failures", lambda rows: rows[:1])
    assert main(["check-pair", str(FIXTURES / "adjacent_pairs.json")]) == 3
    err = capsys.readouterr().err
    assert "the unit law fails on an incomparable pair, but the witness search counts 0" in err


def test_unit_law_count_trap_fires_on_a_shared_sweep_that_drops_a_context(monkeypatch, capsys):
    # the hierarchy's sweep skips the first failing context {a,c,d}{b}
    # (0, 1, 0, 0) of {a,b}{c}{d} | {a}{b,c}{d}, at index 5 of the 15
    # contexts of A v B: it reads there the restrictions of the top context,
    # whose join has more blocks than {a,c,d}{b}.  The hierarchy lists as
    # many witnesses as it counts, but h's unit, read off the block tables,
    # is strict at three
    def skipped(rows):
        rows[5] = rows[-1]
        return rows

    sabotage_kernel(monkeypatch, netsheaf.independence, "_sweep_failures", skipped)
    assert main(["descent", str(FIXTURES / "adjacent_pairs.json")]) == 3
    err = capsys.readouterr().err
    assert "unit-law witness count disagrees with the unit of the descent adjunction" in err


STABILITY_TRAP = "covering stability disagrees with the unit law's closed form on a cover"


def test_stability_trap_fires_on_a_comparable_cover_with_a_violation(monkeypatch, capsys):
    # every meet of the stability sweep made the bottom context, so the
    # comparable cover (bottom, B) of the square pair reports its top
    # context B as a violation
    sabotage_kernel(monkeypatch, netsheaf.descent, "meets",
                    lambda rows: [(0,) * len(row) for row in rows])
    assert main(["descent", str(FIXTURES / "square_pair.json")]) == 3
    err = capsys.readouterr().err
    assert STABILITY_TRAP in err and '"comparable": true' in err


def test_stability_trap_fires_on_an_incomparable_cover_without_violations(
    monkeypatch, capsys
):
    # the walk over the contexts of C v D stops after the bottom context,
    # which never fails, so the failures of the incomparable cover (A, B)
    # are dropped; in `descent.py` only that walk enumerates strings
    walk = netsheaf.descent._set_partition_rgs
    monkeypatch.setattr(netsheaf.descent, "_set_partition_rgs", lambda k: islice(walk(k), 1))
    assert main(["descent", str(FIXTURES / "square_pair.json")]) == 3
    err = capsys.readouterr().err
    assert STABILITY_TRAP in err and '"comparable": false' in err


def constant_to_top(f):
    """A wrong adjoint for f: every target element to the top of the source."""
    top = f.source.elements.index(max(f.source.elements, key=lambda c: c.num_blocks))
    return MonotoneMap.certified(f.target, f.source, [top] * len(f.target))


def test_thickening_trap_fires_on_a_sabotaged_adjoint(square_pair):
    report = descent_map(AlgebraPair(*square_pair))
    h, adjunction = report.h, report.adjunction
    assert netsheaf.descent._thickening(h, adjunction).overall
    for sabotaged in (
        replace(adjunction, adjoint=constant_to_top(h)),  # a wrong section
        replace(adjunction, is_coreflector=False),  # a wrong verdict
    ):
        with pytest.raises(InternalConsistencyError) as err:
            netsheaf.descent._thickening(h, sabotaged)
        assert "thickening section" in str(err.value)
    # the generic route: a coreflector verdict on a map that is not even surjective
    one, two = (FinitePoset(tuple(range(n)), lambda x, y: x <= y) for n in (1, 2))
    into = MonotoneMap(one, two, [0])
    assert not thickening_report(into, left_adjoint(into)).overall
    with pytest.raises(InternalConsistencyError):
        thickening_report(into, replace(left_adjoint(into), is_coreflector=True))


def test_adjoint_join_trap_fires_on_a_sabotaged_adjoint(monkeypatch, tmp_path, capsys):
    # g(trivial, {a,b}{c}) := the top context passes both unit and counit
    # (that pair is outside h's image), but ({a,b}{c}, {a,b}{c}) lies above
    # it with a smaller join: only the monotonicity of g catches it
    left, right, meet = full_self_pair_over_scalars()
    ab_c = Partition(left.ambient, (0, 0, 1))

    def change(table, source, target):
        table[target.elements.index((meet, ab_c))] = len(source) - 1

    sabotage_table(monkeypatch, "_g_table", change)
    code, err = run_net(tmp_path, capsys, left, right, meet)
    assert code == 3
    assert "computed left adjoint differs from the algebraic join" in err


def test_adjunction_law_trap_fires_on_a_wrong_adjoint(square_pair):
    _, _, h, _, _ = generic_descent(AlgebraPair(*square_pair))
    wrong = MonotoneMap(h.target, h.source, constant_to_top(h).table)
    with pytest.raises(InternalConsistencyError) as err:
        netsheaf.contexts._assert_adjunction_law(h, wrong)
    assert "adjunction law" in str(err.value)


# -- the fibered-product guard -----------------------------------------------------

def test_fibered_product_guard_refuses_before_any_poset(monkeypatch):
    # two full algebras on 6 points over the scalars: 203^2 = 41,209 pairs,
    # counted from the factors' restrictions to M before any pair is formed,
    # and with no context built as a Partition
    def no_enumeration(*_):
        raise AssertionError("factor contexts built as Partitions before the guard")

    guard = netsheaf.descent.guard

    def unpaired(requested, bound, what):
        assert "pairs" not in sys._getframe(1).f_locals, "pairs formed before the guard"
        guard(requested, bound, what)

    monkeypatch.setattr(netsheaf.contexts, "coarsenings", no_enumeration)
    monkeypatch.setattr(netsheaf.descent, "guard", unpaired)
    full = Partition.discrete(ambient(6))
    pair = AlgebraPair(full, full, meet_algebra=Partition.trivial(full.ambient))
    for build in (fibered_context_product, descent_map, sheaf_report):
        with pytest.raises(SizeGuardError) as err:
            build(pair)
        assert err.value.requested == 203**2
        assert err.value.bound == MAX_FIBERED_ELEMENTS
        assert str(203**2) in str(err.value)
        assert str(MAX_FIBERED_ELEMENTS) in str(err.value)


def test_fibered_product_is_built_from_the_restrictions_its_guard_counted(monkeypatch):
    # one restriction to M per context of A and of B per product build, on
    # block strings, from one call of the restriction kernel per factor: the
    # restrictions the guard counts are the ones that pair the contexts, and
    # no overlap join of Partitions is taken
    calls = []
    kernel = netsheaf.descent._restrictions

    def counted(contexts, blocks):
        rows = kernel(contexts, blocks)
        calls.append(len(rows))
        return rows

    def no_union_find(*_):
        raise AssertionError("a union-find per context")

    monkeypatch.setattr(netsheaf.descent, "_restrictions", counted)
    monkeypatch.setattr(netsheaf.descent, "_overlap_rgs", no_union_find)
    a = Partition.discrete(ambient(4))
    b = Partition.from_blocks(ambient(4), [["a", "b"], ["c"], ["d"]])
    pair = AlgebraPair(a, b)
    overlap_join.cache_clear()
    product = fibered_context_product(pair)
    assert calls == [len(Contexts(a)), len(Contexts(b))] == [15, 5]
    assert overlap_join.cache_info().currsize == 0
    meet = pair.meet_algebra
    assert set(product.elements) == {
        (c1, c2)
        for c1 in coarsenings(a)
        for c2 in coarsenings(b)
        if overlap_join(c1, meet) == overlap_join(c2, meet)
    }


def test_fibered_product_refuses_a_meet_outside_a_factor():
    amb = ambient(4)
    a, b = Partition(amb, (0, 0, 1, 1)), Partition(amb, (0, 1, 0, 1))
    assert list(inspect.signature(FiberedContextProduct).parameters) == [
        "left_poset", "right_poset", "meet"
    ]
    for meet in (a, b, Partition.discrete(amb)):
        with pytest.raises(InputError, match="is not contained in both members"):
            FiberedContextProduct(Contexts(a), Contexts(b), meet)
    assert len(FiberedContextProduct(Contexts(a), Contexts(b), Partition.trivial(amb))) == 4


def test_fibered_product_guard_admits_the_constant_seven_point_net():
    # the diagonal of C_A x C_A over M = A: Bell(7) = 877 elements
    full = Partition.discrete(ambient(7))
    product = fibered_context_product(AlgebraPair(full, full, meet_algebra=full))
    assert len(product) == 877 <= MAX_FIBERED_ELEMENTS
