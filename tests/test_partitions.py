import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsheaf import (
    MAX_STABILITY_TRIPLES,
    AlgebraPair,
    AmbientSet,
    InputError,
    Partition,
    SizeGuardError,
    all_partitions,
    bell_number,
    coarsenings,
    common_refinement,
    indicator_algebra,
    is_coarser,
    overlap_join,
)
from netsheaf.linalg import Span, flatten
from netsheaf.descent import stability_rows
from netsheaf.partitions import _canonical_rgs, _set_partition_rgs

from conftest import (
    ambient,
    oracle_all_partitions,
    oracle_bell,
    oracle_is_coarser,
    oracle_join,
    oracle_meet,
    oracle_unit_law_failures,
    random_partitions,
    span_contains_span,
)


def blocks(p):
    return p.block_points()


def test_construction_canonical_form(amb4):
    p = Partition.from_blocks(amb4, [["d", "c"], ["b", "a"]])
    assert blocks(p) == (("a", "b"), ("c", "d"))
    assert str(p) == "{a,b}{c,d}"
    assert p == Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])


def test_str_is_rendered_once_per_instance(amb4):
    p = Partition.from_blocks(amb4, [["d", "c"], ["b", "a"]])
    assert str(p) is str(p)
    twin = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    assert twin == p and str(twin) == str(p) and str(twin) is not str(p)  # no shared cache


def test_construction_rejects_bad_blocks(amb4):
    with pytest.raises(InputError):
        Partition.from_blocks(amb4, [["a", "b"], ["b", "c", "d"]])
    with pytest.raises(InputError):
        Partition.from_blocks(amb4, [["a", "b"], ["c"]])
    with pytest.raises(InputError):
        Partition.from_blocks(amb4, [["a", "b"], [], ["c", "d"]])
    with pytest.raises(InputError):
        Partition.from_blocks(amb4, [["a", "b"], ["c", "d", "x"]])
    with pytest.raises(InputError):
        AmbientSet(["a", "a"])


def test_refinement_square_pair(square_pair):
    a, b = square_pair
    assert common_refinement(a, b) == Partition.discrete(a.ambient)


def test_refinement_with_trivial_is_identity(partitions_by_size):
    for parts in partitions_by_size.values():
        triv = Partition.trivial(parts[0].ambient)
        for p in parts:
            assert common_refinement(p, triv) == p


def test_refinement_three_point_example(halves_pair):
    left, right = halves_pair
    assert common_refinement(left, right) == oracle_join(left, right)
    assert common_refinement(left, right) == Partition.discrete(left.ambient)


def test_overlap_square_pair(square_pair):
    a, b = square_pair
    assert overlap_join(a, b) == Partition.trivial(a.ambient)


def test_overlap_with_discrete_is_identity(partitions_by_size):
    for parts in partitions_by_size.values():
        disc = Partition.discrete(parts[0].ambient)
        for p in parts:
            assert overlap_join(p, disc) == p


def test_overlap_three_point_example(halves_pair):
    left, right = halves_pair
    assert overlap_join(left, right) == oracle_meet(left, right)
    assert overlap_join(left, right) == Partition.trivial(left.ambient)


def test_is_coarser_examples(square_pair):
    a, b = square_pair
    triv = Partition.trivial(a.ambient)
    assert is_coarser(triv, a)
    assert not is_coarser(a, b)
    assert is_coarser(a, a)


def test_ambient_mismatch_is_input_error(amb3, amb4):
    p3 = Partition.trivial(amb3)
    p4 = Partition.trivial(amb4)
    with pytest.raises(InputError):
        common_refinement(p3, p4)
    with pytest.raises(InputError):
        overlap_join(p3, p4)
    with pytest.raises(InputError):
        is_coarser(p3, p4)


def test_lattice_ops_match_oracles_exhaustively(partitions_by_size):
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        for p in parts:
            for q in parts:
                assert common_refinement(p, q) == oracle_join(p, q)
                assert overlap_join(p, q) == oracle_meet(p, q)
                assert is_coarser(p, q) == oracle_is_coarser(p, q)


def test_lattice_identities_all_pairs_up_to_5(partitions_by_size):
    for parts in partitions_by_size.values():
        for p in parts:
            assert common_refinement(p, p) == p
            assert overlap_join(p, p) == p
            for q in parts:
                j = common_refinement(p, q)
                m = overlap_join(p, q)
                assert j == common_refinement(q, p)
                assert m == overlap_join(q, p)
                assert is_coarser(p, j) and is_coarser(q, j)
                assert is_coarser(m, p) and is_coarser(m, q)
                # absorption ties the two operations together
                assert overlap_join(p, j) == p
                assert common_refinement(p, m) == p


def test_associativity_all_triples_up_to_4(partitions_by_size):
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        for p in parts:
            for q in parts:
                for r in parts:
                    assert common_refinement(common_refinement(p, q), r) == \
                        common_refinement(p, common_refinement(q, r))
                    assert overlap_join(overlap_join(p, q), r) == \
                        overlap_join(p, overlap_join(q, r))


def test_operator_sugar(square_pair):
    a, b = square_pair
    assert a | b == common_refinement(a, b)
    assert a & b == overlap_join(a, b)
    assert Partition.trivial(a.ambient) <= a


def test_refinement_dimension_bound(partitions_by_size):
    # dim S_{p v q} <= dim S_p * dim S_q with equality iff all blocks intersect
    for parts in partitions_by_size.values():
        for p in parts:
            for q in parts:
                j = common_refinement(p, q)
                assert j.num_blocks <= p.num_blocks * q.num_blocks
                all_intersect = all(
                    any(x in set(qb) for x in pb)
                    for pb in p.blocks
                    for qb in q.blocks
                )
                assert (j.num_blocks == p.num_blocks * q.num_blocks) == all_intersect


def test_subalgebra_duality_by_span_containment(partitions_by_size):
    # is_coarser(p, q) iff span(indicators of p) <= span(indicators of q)
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        spans = {
            p: Span([flatten(m) for m in indicator_algebra(p).basis], n * n)
            for p in parts
        }
        for p in parts:
            for q in parts:
                assert is_coarser(p, q) == span_contains_span(spans[q], spans[p])


def test_bell_numbers_match_independent_recurrence():
    for n in range(11):
        assert bell_number(n) == oracle_bell(n)
    assert bell_number(10) == 115975


def test_enumeration_matches_independent_enumeration():
    for n in (1, 2, 3, 4, 5):
        amb = ambient(n)
        mine = all_partitions(amb)
        assert len(mine) == oracle_bell(n)
        assert set(mine) == oracle_all_partitions(amb)
        assert len(set(mine)) == len(mine)


def test_coarsenings_are_exactly_the_contexts(partitions_by_size):
    for parts in partitions_by_size[4]:
        cs = coarsenings(parts)
        assert len(cs) == bell_number(parts.num_blocks)
        assert all(is_coarser(c, parts) for c in cs)
        assert list(cs) == sorted(cs, key=lambda p: p.rgs)


def test_coarsenings_equal_the_canonicalised_and_sorted_route():
    # the trusted constructor skips relabelling and the sort; every field
    # must match partitions built through Partition(...) and then sorted
    for n in range(1, 8):
        for p in all_partitions(ambient(n)):
            old = sorted(
                (
                    Partition(p.ambient, [grouping[b] for b in p.rgs])
                    for grouping in _set_partition_rgs(p.num_blocks)
                ),
                key=lambda c: c.rgs,
            )
            new = coarsenings(p)
            assert list(new) == old
            assert [(c.blocks, hash(c)) for c in new] == [(c.blocks, hash(c)) for c in old]


def test_common_refinement_equals_the_checked_constructor_route():
    # the trusted constructor skips the second relabelling; every field must
    # match the result built through Partition(...)
    for n in range(1, 6):
        parts = all_partitions(ambient(n))
        for p in parts:
            for q in parts:
                new = common_refinement(p, q)
                old = Partition(p.ambient, tuple(zip(p.rgs, q.rgs)))
                assert new == old
                assert (new.rgs, new.blocks, hash(new)) == (old.rgs, old.blocks, hash(old))


@st.composite
def partitions_with_covers(draw):
    """A partition J with at most 6 blocks and up to four pairs (C, D) of its
    contexts, as block strings over J's blocks."""
    j = draw(random_partitions(1, 6))
    k = j.num_blocks
    context = st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(_canonical_rgs)
    return j, draw(st.lists(st.tuples(context, context), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(partitions_with_covers())
def test_indexed_unit_law_sweep_equals_the_string_keyed_oracle(drawn):
    # each cover (C, D) taken as a pair, whose covers covering stability
    # sweeps with memos of indices that later covers read: its rows at the
    # top cover, (C, D) itself, as point strings, against the oracle's
    # strings over J's blocks read at J's points.  A pair that the sweep's
    # guard refuses has more triples than the bound
    j, covers = drawn
    for c, d in covers:
        over_j = [tuple([s[b] for b in j.rgs]) for s in (c, d)]
        pair = AlgebraPair(*(Partition._canonical(j.ambient, s) for s in over_j))
        expected = [tuple(tuple([s[b] for b in j.rgs]) for s in row)
                    for row in oracle_unit_law_failures(c, d)]
        try:
            (source, left, right), rows = stability_rows(pair)
        except SizeGuardError:
            joined = common_refinement(pair.left, pair.right)
            assert bell_number(joined.num_blocks) * bell_number(pair.left.num_blocks) * (
                bell_number(pair.right.num_blocks)) > MAX_STABILITY_TRIPLES
            continue
        points = list(source.over(Partition.discrete(j.ambient)))
        top = len(left) - 1, len(right) - 1
        assert [(points[e], points[g]) for e, *cover, g in rows if tuple(cover) == top] == expected
