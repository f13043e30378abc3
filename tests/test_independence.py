from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netsheaf.contexts
import netsheaf.independence
import netsheaf.staralg
from netsheaf import (
    CONDITIONS,
    UNDETERMINED,
    AlgebraPair,
    AmbientSet,
    EngineError,
    InputError,
    InternalConsistencyError,
    Partition,
    all_partitions,
    cstar_independent,
    extended_locality,
    generated_star_algebra,
    hierarchy_report,
    indicator_algebra,
    microcausality,
    product_sense,
    schlieder,
    strong_locality,
    unit_law,
)
from netsheaf.partitions import coarsenings, overlap_join
from netsheaf.staralg import commutant

from conftest import (
    ambient,
    oracle_rebuilt_strong_locality_witness,
    oracle_strong_locality_witness,
    oracle_unit_law_witnesses,
)

SZ = [[1, 0], [0, -1]]
SX = [[0, 1], [1, 0]]


def pauli_pair():
    return AlgebraPair(generated_star_algebra(2, [SZ]), generated_star_algebra(2, [SX]))


def block_diagonal_pair():
    """Inside M2 + M2: A acts on the first summand, B on the second; they
    commute but share the two-dimensional center of the block decomposition."""

    def unit(i, j):
        m = [[0] * 4 for _ in range(4)]
        m[i][j] = 1
        return m

    upper = generated_star_algebra(4, [unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)])
    lower = generated_star_algebra(4, [unit(2, 2), unit(2, 3), unit(3, 2), unit(3, 3)])
    return AlgebraPair(upper, lower)


def test_pair_validation(amb3, amb4):
    with pytest.raises(InputError):
        AlgebraPair(Partition.trivial(amb3), Partition.trivial(amb4))
    with pytest.raises(InputError):
        AlgebraPair(Partition.trivial(amb3), generated_star_algebra(2, []))
    a = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    with pytest.raises(InputError):
        AlgebraPair(a, a, meet_algebra=Partition.discrete(amb4))


def test_meet_algebra_defaults_to_intersection(square_pair):
    a, b = square_pair
    pair = AlgebraPair(a, b)
    assert pair.meet_algebra == Partition.trivial(a.ambient)


def test_microcausality(square_pair):
    a, b = square_pair
    assert microcausality(AlgebraPair(a, b)) is True
    assert microcausality(pauli_pair()) is False
    s = generated_star_algebra(2, [SZ])
    assert microcausality(AlgebraPair(s, commutant(s))) is True


def test_extended_locality(square_pair, amb4, halves_pair):
    a, b = square_pair
    assert extended_locality(AlgebraPair(a, b)) is True
    assert extended_locality(AlgebraPair(a, a)) is False
    left, right = halves_pair
    assert extended_locality(AlgebraPair(left, right)) is True


def test_schlieder(square_pair, halves_pair, amb3):
    a, b = square_pair
    assert schlieder(AlgebraPair(a, b)) is True
    left, right = halves_pair
    assert schlieder(AlgebraPair(left, right)) is False
    scalars = Partition.trivial(amb3)
    assert schlieder(AlgebraPair(scalars, right)) is True


def test_schlieder_witness_blocks(halves_pair):
    left, right = halves_pair
    report = hierarchy_report(AlgebraPair(left, right))
    assert report.witnesses["schlieder"]["left_block"] == "{2}"
    assert report.witnesses["schlieder"]["right_block"] == "{0}"


def test_schlieder_matrix_engine(square_pair):
    a, b = square_pair
    matrix_pair = AlgebraPair(indicator_algebra(a), indicator_algebra(b))
    assert schlieder(matrix_pair) is True  # kernel dim 0 settles it
    assert schlieder(pauli_pair()) == UNDETERMINED


def test_product_sense(square_pair, halves_pair, amb3):
    a, b = square_pair
    assert product_sense(AlgebraPair(a, b)) is True  # 4 = 2 * 2
    left, right = halves_pair
    assert product_sense(AlgebraPair(left, right)) is False  # 3 != 4
    scalars = Partition.trivial(amb3)
    assert product_sense(AlgebraPair(scalars, right)) is True


def test_strong_locality(square_pair, halves_pair):
    a, b = square_pair
    assert strong_locality(AlgebraPair(a, b)) is True
    assert strong_locality(AlgebraPair(a, a)) is False
    left, right = halves_pair
    assert strong_locality(AlgebraPair(left, right)) is True
    with pytest.raises(EngineError):
        strong_locality(pauli_pair())


def test_strong_locality_size_guard(amb4):
    from netsheaf import SizeGuardError

    full = Partition.discrete(amb4)
    with pytest.raises(SizeGuardError):
        strong_locality(AlgebraPair(full, full), max_bell=3)


def test_strong_locality_witness_is_lemma_style(square_pair):
    # for A = B the witness follows the contrapositive construction:
    # C = scalars, D = A n B
    a, _ = square_pair
    report = hierarchy_report(AlgebraPair(a, a))
    w = report.witnesses["strong_locality"]
    assert w["context_of_left"] == "{a,b,c,d}"
    assert w["context_of_right"] == str(a)


def test_strong_locality_witness_equals_the_full_walk_up_to_five_points():
    for n in range(1, 6):
        contexts = all_partitions(ambient(n))
        for a in contexts:
            for b in contexts:
                assert netsheaf.independence._strong_locality_witness(a, b) == (
                    oracle_strong_locality_witness(a, b)
                )


def test_strong_locality_witness_stops_at_the_first_failing_pair(monkeypatch):
    # A = {p0,p1}{p2}...{p9}, B = {p0}{p1,p2}{p3}...{p9}: the walk fails at
    # its second pair, (C*1, {p0,p1,...,p8}{p9}), where the full walk built
    # Bell(9) = 21,147 contexts of each side
    walk = netsheaf.independence.iter_coarsenings
    built = []

    def counted(p):
        for c in walk(p):
            built.append(c)
            yield c

    monkeypatch.setattr(netsheaf.independence, "iter_coarsenings", counted)
    amb = AmbientSet([f"p{i}" for i in range(10)])
    a = Partition(amb, [0, 0, 1, 2, 3, 4, 5, 6, 7, 8])
    b = Partition(amb, [0, 1, 1, 2, 3, 4, 5, 6, 7, 8])
    c, d, side, actual = netsheaf.independence._strong_locality_witness(a, b)
    assert len(built) == 3
    assert (c, d, side) == (Partition.trivial(amb), built[2], "left")
    assert str(d) == "{p0,p1,p2,p3,p4,p5,p6,p7,p8}{p9}" and actual == d


@st.composite
def partition_pairs(draw, max_points=6):
    """Two partitions of one ambient set of 1 to max_points points."""
    n = draw(st.integers(1, max_points))
    a, b = (
        Partition(ambient(n), draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        for _ in range(2)
    )
    return a, b


@settings(max_examples=150, deadline=None)
@given(partition_pairs())
@example((Partition(ambient(6), [0, 1, 2, 3, 4, 5]), Partition(ambient(6), [0, 0, 0, 0, 0, 0])))
@example((Partition(ambient(6), [0, 1, 0, 2, 1, 3]), Partition(ambient(6), [0, 1, 2, 3, 2, 0])))
def test_strong_locality_witness_builds_each_context_at_most_once(pair):
    # the witness of the walk that rebuilt C_B per context of A, from at
    # most |C_A| + |C_B| contexts built
    a, b = pair
    walk = netsheaf.independence.iter_coarsenings
    built = []

    def counted(p):
        for c in walk(p):
            built.append(c)
            yield c

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(netsheaf.independence, "iter_coarsenings", counted)
        witness = netsheaf.independence._strong_locality_witness(a, b)
    assert witness == oracle_rebuilt_strong_locality_witness(a, b)
    assert len(built) <= len(coarsenings(a)) + len(coarsenings(b))


def test_extended_does_not_imply_strong_in_the_finite_engine(amb4):
    # the two middle conditions of the hierarchy separate already on four
    # points: joining A with the context {a,c}{b,d} of B generates the full
    # algebra, whose restriction to B is strictly bigger than the context
    a = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    b = Partition.from_blocks(amb4, [["a", "c"], ["b"], ["d"]])
    pair = AlgebraPair(a, b)
    assert extended_locality(pair) is True
    assert strong_locality(pair) is False
    witness = hierarchy_report(pair).witnesses["strong_locality"]
    assert witness["context_of_right"] == "{a,c}{b,d}"
    assert witness["restriction_of_join"] == str(b)


def test_unit_law(square_pair, halves_pair, amb3, amb4):
    a, b = square_pair
    assert unit_law(AlgebraPair(a, b)) is False
    full = Partition.discrete(amb3)
    scalars = Partition.trivial(amb3)
    assert unit_law(AlgebraPair(full, scalars)) is True
    left, right = halves_pair
    assert unit_law(AlgebraPair(left, right)) is False


def test_unit_law_witnesses(square_pair, halves_pair, amb3, amb4):
    a, b = square_pair
    report = hierarchy_report(AlgebraPair(a, b))
    assert "{a,d}{b}{c}" in report.witnesses["unit_law"]["contexts"]
    left, right = halves_pair
    report = hierarchy_report(AlgebraPair(left, right))
    assert "{0,2}{1}" in report.witnesses["unit_law"]["contexts"]


def test_hierarchy_square_pair(square_pair):
    a, b = square_pair
    report = hierarchy_report(AlgebraPair(a, b))
    assert report.microcausality is True
    assert report.extended_locality is True
    assert report.schlieder is True
    assert report.cstar_independent is True
    assert report.product_sense is True
    assert report.strong_locality is True
    assert report.unit_law is False


def test_hierarchy_halves_pair(halves_pair):
    left, right = halves_pair
    report = hierarchy_report(AlgebraPair(left, right))
    assert report.microcausality is True
    assert report.extended_locality is True
    assert report.schlieder is False
    assert report.cstar_independent is False
    assert report.product_sense is False
    assert report.strong_locality is True
    assert report.unit_law is False


def test_hierarchy_self_pair(square_pair):
    a, _ = square_pair
    report = hierarchy_report(AlgebraPair(a, a))
    assert report.microcausality is True
    assert report.extended_locality is False
    assert report.strong_locality is False


def test_hierarchy_matrix_engine():
    report = hierarchy_report(pauli_pair())
    assert report.microcausality is False
    assert report.extended_locality is False
    assert report.cstar_independent is False
    assert report.product_sense is False
    assert report.schlieder == UNDETERMINED
    assert report.strong_locality == UNDETERMINED
    assert report.unit_law == UNDETERMINED
    assert "commutator" in report.witnesses["microcausality"]


def test_hierarchy_block_diagonal_matrix_pair():
    report = hierarchy_report(block_diagonal_pair())
    assert report.microcausality is True
    assert report.extended_locality is False
    assert report.witnesses["extended_locality"]["intersection_dim"] == 2
    assert report.witnesses["extended_locality"]["nonscalar_element"] is not None
    # E00 * E22 = 0 with both factors nonzero: M2 + C and C + M2 (dimension 5
    # each) generate M2 + M2, so the multiplication kernel has 25 - 8 = 17
    assert report.schlieder is False
    assert report.witnesses["schlieder"]["multiplication_kernel_dim"] == 17
    assert report.product_sense is False
    assert report.cstar_independent is False


def test_report_json_field_names(square_pair):
    a, b = square_pair
    data = hierarchy_report(AlgebraPair(a, b)).to_json()
    for name in (
        "microcausality",
        "extended_locality",
        "schlieder",
        "cstar_independent",
        "product_sense",
        "strong_locality",
        "unit_law",
        "witnesses",
    ):
        assert name in data
    with pytest.raises(InputError):
        hierarchy_report(AlgebraPair(a, b)).value("sheaf")


def test_schlieder_symmetric_and_conditions_permutation_equivariant(partitions_by_size):
    parts = partitions_by_size[4]
    amb = parts[0].ambient
    perms = list(permutations(range(4)))[:6]
    for a in parts[::3]:
        for b in parts[::4]:
            assert schlieder(AlgebraPair(a, b)) == schlieder(AlgebraPair(b, a))
            base = hierarchy_report(AlgebraPair(a, b))
            for perm in perms:
                pa = Partition(amb, tuple(a.rgs[perm[i]] for i in range(4)))
                pb = Partition(amb, tuple(b.rgs[perm[i]] for i in range(4)))
                relabeled = hierarchy_report(AlgebraPair(pa, pb))
                for name in (
                    "microcausality",
                    "extended_locality",
                    "schlieder",
                    "cstar_independent",
                    "product_sense",
                    "strong_locality",
                    "unit_law",
                ):
                    assert base.value(name) == relabeled.value(name)


def test_schlieder_iff_product_sense_small(partitions_by_size):
    # commutative pairs: Schlieder and product sense coincide (ambient <= 4
    # here; the acceptance suite pushes this to 5)
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                pair = AlgebraPair(a, b)
                assert schlieder(pair) == product_sense(pair)


def test_cstar_iff_all_context_pairs_product(partitions_by_size):
    from netsheaf.partitions import coarsenings

    for n in (2, 3):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                lhs = cstar_independent(AlgebraPair(a, b))
                rhs = all(
                    product_sense(AlgebraPair(c, d))
                    for c in coarsenings(a)
                    for d in coarsenings(b)
                )
                assert lhs == rhs


# -- the context-quantified conditions in closed form ---------------------------

@st.composite
def pairs_up_to_six_points(draw):
    """Two partitions of one ambient set of at most six points."""
    n = draw(st.integers(1, 6))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return Partition(ambient(n), draw(labels)), Partition(ambient(n), draw(labels))


# grid 2x3: |C_A|*|C_B| = 2*5 <= Bell(6), the join-image route
GRID_2X3 = (Partition(ambient(6), [0, 0, 0, 1, 1, 1]), Partition(ambient(6), [0, 1, 2, 0, 1, 2]))
# {a,b}{c}{d}{e}{f} against {a}{b,c}{d}{e}{f}: Bell(5)^2 > Bell(6), the sweep
NEAR_EQUAL = (Partition(ambient(6), [0, 0, 1, 2, 3, 4]), Partition(ambient(6), [0, 1, 1, 2, 3, 4]))


@settings(max_examples=300, deadline=None)
@given(pairs_up_to_six_points())
@example(GRID_2X3)
@example(NEAR_EQUAL)
def test_closed_forms_equal_the_context_sweeps(pair):
    a, b = pair
    failing = oracle_unit_law_witnesses(a, b)
    expected = (len(failing), failing[:50])
    assert unit_law(AlgebraPair(a, b)) == (not failing)
    assert netsheaf.independence._join_image_failures(a, b) == expected
    assert netsheaf.independence._sweep_failures(a, b) == expected
    assert netsheaf.independence._unit_law_failures(a, b) == expected
    strong = netsheaf.independence._strong_locality_witness(a, b) is None
    assert strong_locality(AlgebraPair(a, b)) == strong


def test_unit_law_failures_take_the_cheaper_route(monkeypatch):
    def refuse(name):
        def route(*_):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(netsheaf.independence, name, route)

    refuse("_sweep_failures")
    assert netsheaf.independence._unit_law_failures(*GRID_2X3)[0] == 203 - 2 * 5
    monkeypatch.undo()
    refuse("_join_image_failures")
    count, first = netsheaf.independence._unit_law_failures(*NEAR_EQUAL)
    assert count == len(first) == 37


def test_join_image_builds_only_the_listed_witnesses(monkeypatch):
    # grid 2x3: C_A, C_B and the 203 contexts of A v B are all read as block
    # strings, so no context is built as a Partition; the 50 witnesses are
    failing = oracle_unit_law_witnesses(*GRID_2X3)

    def no_enumeration(*_):
        raise AssertionError("contexts built as Partitions")

    monkeypatch.setattr(netsheaf.contexts, "coarsenings", no_enumeration)
    monkeypatch.setattr(netsheaf.independence, "coarsenings", no_enumeration, raising=False)
    count, first = netsheaf.independence._join_image_failures(*GRID_2X3)
    assert (count, first) == (len(failing), failing[:50]) and count == 203 - 2 * 5


def test_unit_law_sweep_on_nine_points_equals_the_oracle_without_overlap_joins():
    # A = {p0,p1}{p2}...{p8}, B = {p0}{p1}{p2,p3}{p4}...{p8}: Bell(8)^2 > Bell(9),
    # so the witnesses come from one sweep over the 21,147 block strings of
    # A v B, which puts no context in the overlap-join cache (the Partition
    # route put 42,294 there)
    amb = AmbientSet([f"p{i}" for i in range(9)])
    a = Partition(amb, [0, 0, 1, 2, 3, 4, 5, 6, 7])
    b = Partition(amb, [0, 1, 2, 2, 3, 4, 5, 6, 7])
    overlap_join.cache_clear()
    witnesses = hierarchy_report(AlgebraPair(a, b)).witnesses["unit_law"]
    assert overlap_join.cache_info().currsize < 100
    failing = oracle_unit_law_witnesses(a, b)
    assert len(failing) == 1348
    assert witnesses == {
        "count": 1348, "contexts": [str(c) for c in failing[:50]], "truncated": True
    }


def test_hierarchy_unit_law_witnesses_equal_the_oracle_up_to_five_points():
    # every ordered pair on at most five points, either route of the witnesses
    for n in range(1, 6):
        contexts = all_partitions(ambient(n))
        for a in contexts:
            for b in contexts:
                failing = oracle_unit_law_witnesses(a, b)
                witnesses = hierarchy_report(AlgebraPair(a, b)).witnesses
                if not failing:
                    assert "unit_law" not in witnesses
                    continue
                assert witnesses["unit_law"] == {
                    "count": len(failing),
                    "contexts": [str(c) for c in failing[:50]],
                    "truncated": len(failing) > 50,
                }


# -- the context-free conditions, decided once ---------------------------------

CONTEXT_FREE = CONDITIONS[:5]


@st.composite
def partition_pairs(draw):
    """Two partitions of one ambient set of at most four points."""
    n = draw(st.integers(1, 4))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return Partition(ambient(n), draw(labels)), Partition(ambient(n), draw(labels))


@settings(max_examples=40, deadline=None)
@given(partition_pairs())
@example((Partition(ambient(3), [0, 0, 1]), Partition(ambient(3), [0, 1, 1])))
def test_matrix_engine_agrees_with_partition_engine_on_indicator_algebras(pair):
    a, b = pair
    by_partition = hierarchy_report(AlgebraPair(a, b))
    by_matrix = hierarchy_report(AlgebraPair(indicator_algebra(a), indicator_algebra(b)))
    for name in CONTEXT_FREE:
        assert by_matrix.value(name) == by_partition.value(name), name
    if by_partition.product_sense is False:
        w = by_partition.witnesses["product_sense"]
        missing = w["expected_blocks"] - w["join_blocks"]
        assert by_matrix.witnesses["schlieder"]["multiplication_kernel_dim"] == missing


def test_matrix_report_sweeps_commutators_at_most_twice(monkeypatch, square_pair):
    calls = []
    sweep = netsheaf.staralg.commuting_witness

    def counted(a, b):
        calls.append((a, b))
        return sweep(a, b)

    monkeypatch.setattr(netsheaf.staralg, "commuting_witness", counted)
    monkeypatch.setattr(netsheaf.independence, "commuting_witness", counted)
    a, b = square_pair
    for pair in (block_diagonal_pair(), AlgebraPair(indicator_algebra(a), indicator_algebra(b))):
        calls.clear()
        assert hierarchy_report(pair).microcausality is True
        assert 1 <= len(calls) <= 2


def test_commuting_matrix_pair_sweeps_commutators_once(monkeypatch):
    # the kernel dimension is taken from the commutation already established,
    # not from a second sweep inside multiplication_kernel_dim
    calls = []
    sweep = netsheaf.staralg.commuting_witness
    for module in (netsheaf.staralg, netsheaf.independence):
        monkeypatch.setattr(module, "commuting_witness",
                            lambda a, b: calls.append((a, b)) or sweep(a, b))
    report = hierarchy_report(block_diagonal_pair())
    assert report.microcausality is True and report.schlieder is False
    assert len(calls) == 1


def test_disagreeing_block_scan_is_trapped(monkeypatch, square_pair, halves_pair):
    # the scan is the second route for the partition engine's product-sense
    # decision; a wrong answer from it in either direction must be trapped
    for (a, b), wrong in ((square_pair, (0, 0)), (halves_pair, None)):
        monkeypatch.setattr(netsheaf.independence, "_schlieder_witness", lambda *_: wrong)
        with pytest.raises(InternalConsistencyError) as err:
            hierarchy_report(AlgebraPair(a, b))
        assert err.value.dump["disjoint_block_indices"] == wrong
