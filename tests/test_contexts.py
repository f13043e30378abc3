from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netsheaf.contexts
from netsheaf import (
    AlgebraPair,
    AmbientSet,
    ContextPoset,
    Contexts,
    FinitePoset,
    InputError,
    MonotoneMap,
    Partition,
    SizeGuardError,
    covering_stability,
    descent_map,
    dot_export,
    enumerate_contexts,
    fibered_context_product,
    left_adjoint,
    restrict_context,
    strong_locality,
    thickening_report,
    unit_law,
    valuation_independence_test,
)
from netsheaf.contexts import hasse_edges
from netsheaf.partitions import (
    _set_partition_rgs,
    all_partitions,
    coarsenings,
    common_refinement,
    is_coarser,
    overlap_join,
)

from conftest import (
    all_pairs_section_monotone,
    ambient,
    monotone_map_from_function,
    oracle_bell,
    oracle_block_strings,
    oracle_set_partition_rgs,
    poset_bottom,
    random_partitions,
)


def chain(n):
    return FinitePoset(tuple(range(n)), lambda x, y: x <= y)


def test_enumerate_counts(square_pair):
    a, _ = square_pair
    assert len(enumerate_contexts(a)) == 2
    disc = Partition.discrete(a.ambient)
    assert len(enumerate_contexts(disc)) == 15
    triv = Partition.trivial(a.ambient)
    assert len(enumerate_contexts(triv)) == 1


def test_enumerate_counts_match_bell_oracle():
    for n in (1, 2, 3, 4, 5):
        amb = ambient(n)
        poset = enumerate_contexts(Partition.discrete(amb))
        assert len(poset) == oracle_bell(n)


def test_enumerate_has_bottom_and_top(square_pair):
    a, _ = square_pair
    poset = enumerate_contexts(a)
    bottom = poset_bottom(poset)
    assert bottom == Partition.trivial(a.ambient)
    assert poset.algebra in poset.elements


def test_size_guard_names_the_bound():
    # every entry point that enumerates contexts shares one guard
    full = Partition.discrete(ambient(5))
    pair = AlgebraPair(full, full)
    for guarded in (
        lambda: enumerate_contexts(full, max_bell=10),
        lambda: strong_locality(pair, max_bell=10),
        lambda: unit_law(pair, max_bell=10),
        lambda: valuation_independence_test(pair, max_bell=10),
        lambda: covering_stability(pair, max_bell=10),
        lambda: fibered_context_product(pair, max_bell=10),
        lambda: descent_map(pair, max_bell=10),
    ):
        with pytest.raises(SizeGuardError) as err:
            guarded()
        assert err.value.bound == 10
        assert err.value.requested == 52
        assert "10" in str(err.value)
        assert "358 comparable pairs" in str(err.value)
    # the message states the comparable pairs sum_k S(n, k) * Bell(k) as well
    for n, pairs in ((8, 167894), (10, 16733779)):
        assert sum(stirling2(n, k) * oracle_bell(k) for k in range(1, n + 1)) == pairs
        with pytest.raises(SizeGuardError) as err:
            enumerate_contexts(Partition.discrete(ambient(n)), max_bell=10)
        assert f"Bell({n}) = {oracle_bell(n)} elements and {pairs} comparable pairs" in str(
            err.value
        )


def test_restrict_context_examples(square_pair, amb4):
    a, b = square_pair
    c = Partition.from_blocks(amb4, [["a", "d"], ["b"], ["c"]])
    assert restrict_context(c, a) == Partition.trivial(amb4)
    assert restrict_context(c, b) == Partition.trivial(amb4)
    assert restrict_context(a, a) == a
    disc = Partition.discrete(amb4)
    assert restrict_context(disc, a) == a


def test_poset_validation_rejects_non_orders():
    with pytest.raises(InputError):
        FinitePoset((0, 1), lambda x, y: True)  # not antisymmetric
    with pytest.raises(InputError):
        FinitePoset((0, 1, 2), lambda x, y: (y - x) % 3 < 2 and x != 1 or x == y)


def test_monotone_map_rejects_order_reversal():
    two = chain(2)
    with pytest.raises(InputError):
        MonotoneMap(two, two, [1, 0])


def test_left_adjoint_of_identity_is_identity():
    p = chain(3)
    f = MonotoneMap(p, p, [0, 1, 2])
    report = left_adjoint(f)
    assert report.adjoint_exists
    assert report.adjoint.table == (0, 1, 2)
    assert report.is_coreflector and report.is_iso
    assert not any(report.unit_strict) and not any(report.counit_strict)


def test_left_adjoint_of_constant_map_to_point():
    two = chain(2)
    one = chain(1)
    f = MonotoneMap(two, one, [0, 0])
    report = left_adjoint(f)
    assert report.adjoint_exists
    assert report.adjoint.table == (0,)  # bottom of the chain
    assert report.is_coreflector
    assert not report.is_iso  # unit strict at the top element
    assert report.unit_strict == (False, True)


def test_left_adjoint_missing_least_element():
    # two incomparable points over a single bottom target element: the upper
    # preimage of the bottom has no least element
    v = FinitePoset(("x", "y"), lambda a, b: a == b)
    one = chain(1)
    f = MonotoneMap(v, one, [0, 0])
    report = left_adjoint(f)
    assert not report.adjoint_exists
    assert report.missing_least == (0,)


def test_left_adjoint_of_square_descent_map(square_pair):
    a, b = square_pair
    report = descent_map(AlgebraPair(a, b))
    adj = report.adjunction
    assert adj.adjoint_exists
    assert adj.is_coreflector
    assert not adj.is_iso


def test_adjunction_law_exhaustive_on_small_maps():
    # every monotone map from the 15-element context poset to a chain
    # obtained by counting blocks
    amb = ambient(4)
    poset = enumerate_contexts(Partition.discrete(amb))
    sizes = chain(5)
    f = monotone_map_from_function(poset, sizes, lambda p: p.num_blocks - 1)
    report = left_adjoint(f)
    if report.adjoint_exists:
        g = report.adjoint
        for q in range(len(sizes)):
            for p in range(len(poset)):
                assert poset.leq_idx(g.table[q], p) == sizes.leq_idx(q, f.table[p])


def test_thickening_of_square_descent(square_pair):
    a, b = square_pair
    report = descent_map(AlgebraPair(a, b))
    th = report.thickening
    assert th.surjective
    assert all(th.fiber_has_minimum)
    assert th.section_monotone
    assert th.overall
    # the fiber over (trivial, trivial) holds every context restricting
    # trivially to both sides; brute-force recount
    triv = Partition.trivial(a.ambient)
    fiber = [
        c
        for c in report.source.elements
        if overlap_join(c, a) == triv and overlap_join(c, b) == triv
    ]
    assert len(fiber) == 8
    assert triv in fiber
    assert all(is_coarser(triv, c) for c in fiber)  # trivial is the fiber minimum


def test_thickening_identity_and_non_surjective():
    p = chain(2)
    ident = MonotoneMap(p, p, [0, 1])
    rep = thickening_report(ident, left_adjoint(ident))
    assert rep.overall and rep.surjective
    one = chain(1)
    into = MonotoneMap(one, p, [0])
    rep = thickening_report(into, left_adjoint(into))
    assert not rep.surjective
    assert not rep.overall


def test_coreflector_iff_thickening_on_assorted_maps():
    amb = ambient(4)
    poset = enumerate_contexts(Partition.discrete(amb))
    maps = []
    sizes = chain(5)
    maps.append(monotone_map_from_function(poset, sizes, lambda p: p.num_blocks - 1))
    maps.append(MonotoneMap(chain(3), chain(2), [0, 0, 1]))
    maps.append(MonotoneMap(chain(2), chain(3), [0, 2]))
    maps.append(MonotoneMap(chain(1), chain(1), [0]))
    for f in maps:
        adj = left_adjoint(f)
        th = thickening_report(f, adj)
        assert th.overall == adj.is_coreflector


@st.composite
def maps_onto_chains(draw):
    """A monotone map from a context poset (at most four points) to a chain
    of at most four elements: p |-> max of random labels at or below p."""
    poset = ContextPoset(draw(random_partitions(1, 4)))
    k = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=len(poset), max_size=len(poset)))
    table = [
        max(labels[s] for s in range(len(poset)) if poset.leq_idx(s, i))
        for i in range(len(poset))
    ]
    return MonotoneMap(poset, chain(k), table)


def section_not_monotone():
    """Pi_3 onto 0 < 1 < 2 with the minima over 1 and 2 two incomparable
    two-block contexts: every fiber has a minimum, the section is not monotone."""
    poset = ContextPoset(Partition.discrete(ambient(3)))
    a, b, d = (e for e in poset.elements if e.num_blocks == 2)
    level = {a: 1, b: 2, d: 0, poset_bottom(poset): 0}
    return monotone_map_from_function(poset, chain(3), lambda e: level.get(e, 2))


@settings(max_examples=200, deadline=None)
@given(maps_onto_chains())
@example(section_not_monotone())
def test_thickening_section_agrees_with_all_pairs_oracle_on_chain_maps(f):
    # unlike descent maps, these reach sections that exist but are not monotone
    adj = left_adjoint(f)
    th = thickening_report(f, adj)
    assert th.section_monotone == all_pairs_section_monotone(f)
    assert th.overall == adj.is_coreflector


def test_cover_counts_match_stirling_oracle():
    # a partition with k blocks covers exactly C(k, 2) coarser ones (merge two
    # blocks), so the Hasse size is sum_k S(n, k) * C(k, 2)
    from math import comb

    def stirling(n, k):
        if n == k == 0:
            return 1
        if n == 0 or k == 0:
            return 0
        return k * stirling(n - 1, k) + stirling(n - 1, k - 1)

    for n in (2, 3, 4, 5):
        poset = enumerate_contexts(Partition.discrete(ambient(n)))
        expected = sum(stirling(n, k) * comb(k, 2) for k in range(1, n + 1))
        assert len(poset.covers()) == expected


def test_context_poset_order_agrees_with_is_coarser():
    poset = enumerate_contexts(Partition.discrete(ambient(4)))
    for i, p in enumerate(poset.elements):
        for j, q in enumerate(poset.elements):
            assert poset.leq_idx(i, j) == is_coarser(p, q)


def test_dot_export_counts():
    amb = ambient(3)
    poset = enumerate_contexts(Partition.discrete(amb))
    text = dot_export(poset)
    assert text.count("label=") == 5
    assert text.count(" -> ") == 6  # covering pairs of the partition lattice on 3
    single = enumerate_contexts(Partition.trivial(amb))
    assert dot_export(single).count(" -> ") == 0
    two = chain(2)
    assert dot_export(two).count(" -> ") == 1


def test_dot_export_monotone_map(square_pair):
    a, b = square_pair
    report = descent_map(AlgebraPair(a, b))
    text = dot_export(report.h)
    assert "cluster_source" in text and "cluster_target" in text
    assert text.count("style=dashed") == 15
    assert dot_export(report.h) == text  # deterministic


def test_dot_export_rejects_other_types():
    with pytest.raises(InputError):
        dot_export(42)


# -- the order built from Hasse covers ----------------------------------------

@settings(max_examples=60, deadline=None)
@given(random_partitions(1, 7))
@example(Partition.discrete(ambient(7)))
def test_context_poset_masks_equal_the_comparison_sweep(a):
    # the undecorated comparison, so the oracle leaves the shared cache alone
    oracle = FinitePoset(coarsenings(a), leq=is_coarser.__wrapped__)
    poset = ContextPoset(a)
    assert poset.elements == oracle.elements
    assert poset.up == oracle.up
    assert poset.down == oracle.down


@settings(max_examples=60, deadline=None)
@given(random_partitions(1, 7))
@example(Partition.discrete(ambient(7)))
def test_context_cover_walk_equals_the_mask_covers(a):
    # the merge walk, sorted, is the transitive reduction of the comparison
    # sweep, in the same order
    oracle = FinitePoset(coarsenings(a), leq=is_coarser.__wrapped__)
    contexts = Contexts(a)
    assert contexts.elements == oracle.elements
    assert contexts.covers() == oracle.covers()
    assert dot_export(contexts) == dot_export(oracle)


def test_context_strings_equal_the_read_back_up_to_six_points():
    # each context of p read at the first point of each of p's blocks, in
    # canonical order, for every partition on at most 6 points
    partitions = 0
    for n in range(1, 7):
        for p in all_partitions(ambient(n)):
            assert list(Contexts(p).strings()) == oracle_block_strings(p, coarsenings(p))
            partitions += 1
    assert partitions == 1 + 2 + 5 + 15 + 52 + 203


def test_context_strings_over_the_join_equal_the_read_back_up_to_five_points():
    # C_A and C_B read over the blocks of A v B, for all 1 + 4 + 25 + 225 +
    # 2,704 ordered pairs of partitions on at most 5 points
    pairs = 0
    for n in range(1, 6):
        partitions = all_partitions(ambient(n))
        for a in partitions:
            for b in partitions:
                joined = common_refinement(a, b)
                for p in (a, b):
                    expected = oracle_block_strings(joined, coarsenings(p))
                    assert list(Contexts(p).over(joined)) == expected, (a, b)
                pairs += 1
    assert pairs == 2959


def test_context_strings_build_no_partition(monkeypatch):
    # the strings come from the walk alone; the Partitions are built only
    # when `elements` is read
    def no_enumeration(*_):
        raise AssertionError("contexts built as Partitions")

    monkeypatch.setattr(netsheaf.contexts, "coarsenings", no_enumeration)
    full, halves = Partition.discrete(ambient(4)), Partition(ambient(4), (0, 0, 1, 1))
    contexts = Contexts(halves)
    assert list(contexts.strings()) == [(0, 0), (0, 1)]
    assert list(contexts.over(full)) == [(0, 0, 0, 0), (0, 0, 1, 1)]
    with pytest.raises(AssertionError, match="contexts built as Partitions"):
        contexts.elements


ESCAPED_POINTS = ['a"', "b\\", "c\u00e9", "d%", "e", "f\u2603", "g"]


@st.composite
def escaped_partitions(draw, max_points=7):
    """A partition of 1 to max_points points named with a quote, a
    backslash, non-ASCII letters and a percent sign among plain ones."""
    n = draw(st.integers(1, max_points))
    names = draw(st.permutations(ESCAPED_POINTS))[:n]
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return Partition(AmbientSet(names), labels)


@settings(max_examples=100, deadline=None)
@given(random_partitions(1, 7) | escaped_partitions())
@example(Partition.discrete(ambient(7)))
@example(Partition(AmbientSet(ESCAPED_POINTS), (0, 1, 0, 2, 1, 3, 0)))
@example(Partition.trivial(ambient(1)))
@example(Partition.trivial(ambient(5)))
def test_context_labels_equal_str_of_each_context(p):
    # each label made from its prefix's group texts, walked depth first
    assert list(Contexts(p).labels()) == [str(c) for c in coarsenings(p)]


def test_context_labels_build_no_partition(monkeypatch):
    def no_enumeration(*_):
        raise AssertionError("contexts built as Partitions")

    monkeypatch.setattr(netsheaf.contexts, "coarsenings", no_enumeration)
    contexts = Contexts(Partition(ambient(4), (0, 0, 1, 1)))
    assert list(contexts.labels()) == ["{a,b,c,d}", "{a,b}{c,d}"]
    assert len(contexts) == 2


def test_hasse_edges_equal_the_lower_covers_of_every_context_up_to_eight_points():
    # a k-block context has one lower cover per two of its blocks merged
    for n in range(9):
        contexts = coarsenings(Partition.discrete(ambient(n))) if n else ()
        per_context = sum(comb(c.num_blocks, 2) for c in contexts)
        assert hasse_edges(n) == per_context
    assert hasse_edges(8) == 28337


def test_restricted_growth_walk_equals_the_recursive_walk_up_to_ten():
    for k in range(11):
        assert list(_set_partition_rgs(k)) == list(oracle_set_partition_rgs(k))


def stirling2(n: int, k: int) -> int:
    """Partitions of n points into k blocks, by the triangle recurrence."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def test_context_poset_on_eight_points_counts_pairs_and_covers():
    poset = ContextPoset(Partition.discrete(ambient(8)))
    pairs = sum(stirling2(8, k) * oracle_bell(k) for k in range(1, 9))
    covers = sum(stirling2(8, k) * comb(k, 2) for k in range(1, 9))
    assert (pairs, covers) == (167894, 28337)
    assert sum(bin(mask).count("1") for mask in poset.up) == pairs
    hasse = poset.covers()
    assert len(hasse) == covers
    assert Contexts(poset.algebra).covers() == hasse
    # a cover merges exactly two blocks
    assert all(
        poset.elements[i].num_blocks + 1 == poset.elements[j].num_blocks
        for i, j in hasse
    )
