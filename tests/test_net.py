import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsheaf import (
    AmbientSet,
    InputError,
    NetSpec,
    Partition,
    SpacetimePoset,
    analyze_net,
    validate_net,
)
from netsheaf.jsontext import json_parts

from conftest import oracle_bound, oracle_closure


def diamond(spacelike=(("O1", "O2"),)):
    return SpacetimePoset(
        ["bottom", "O1", "O2", "top"],
        [("bottom", "O1"), ("bottom", "O2"), ("O1", "top"), ("O2", "top")],
        spacelike,
    )


def square_net(amb):
    a = Partition.from_blocks(amb, [["a", "b"], ["c", "d"]])
    b = Partition.from_blocks(amb, [["a", "c"], ["b", "d"]])
    return NetSpec(
        spacetime=diamond(),
        assignment={
            "bottom": Partition.trivial(amb),
            "O1": a,
            "O2": b,
            "top": Partition.discrete(amb),
        },
    )


def test_spacetime_closure_and_lattice():
    st = diamond()
    assert st.is_leq("bottom", "top")  # transitive closure
    assert st.meet("O1", "O2") == "bottom"
    assert st.join("O1", "O2") == "top"
    assert st.meet("O1", "top") == "O1"


@st.composite
def spacetime_posets(draw):
    """Up to seven regions and any order pairs, cycles included."""
    n = draw(st.integers(1, 7))
    regions = [f"r{i}" for i in range(n)]
    pair = st.tuples(st.sampled_from(regions), st.sampled_from(regions))
    return SpacetimePoset(regions, draw(st.lists(pair, max_size=12)), [])


@settings(max_examples=300, deadline=None)
@given(spacetime_posets())
def test_meets_and_joins_equal_the_pairwise_filter(spacetime):
    for a in spacetime.regions:
        for b in spacetime.regions:
            assert spacetime.meet(a, b) == oracle_bound(spacetime, a, b, "meet")
            assert spacetime.join(a, b) == oracle_bound(spacetime, a, b, "join")


@st.composite
def relations(draw):
    """Up to eight regions and any index pairs on them, cycles included."""
    n = draw(st.integers(1, 8))
    index = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(index, index), max_size=20))


@settings(max_examples=300, deadline=None)
@given(relations())
def test_warshall_closure_equals_the_fixed_point_loop(relation):
    n, pairs = relation
    regions = [f"r{i}" for i in range(n)]
    spacetime = SpacetimePoset(regions, [(regions[a], regions[b]) for a, b in pairs], [])
    assert (spacetime.leq, spacetime.down) == oracle_closure(n, pairs)


def test_a_chain_of_160_regions_validates_in_under_a_second():
    # every region pair asks for a meet and a join; filtering the bounds
    # pairwise made this quartic in the number of regions
    regions = [f"r{i}" for i in range(160)]
    amb = AmbientSet(["a"])
    spec = NetSpec(
        spacetime=SpacetimePoset(regions, list(zip(regions, regions[1:])), []),
        assignment={r: Partition.trivial(amb) for r in regions},
    )
    start = time.perf_counter()
    validation = validate_net(spec)
    assert time.perf_counter() - start < 1.0
    assert validation.ok


def test_validate_diamond_net(amb4):
    spec = square_net(amb4)
    result = validate_net(spec)
    assert result.ok
    assert result.violations == ()


def test_validate_catches_isotony_violation(amb4):
    spec = square_net(amb4)
    bad = NetSpec(
        spacetime=spec.spacetime,
        assignment={**dict(spec.assignment), "bottom": Partition.discrete(amb4)},
    )
    result = validate_net(bad)
    assert not result.ok
    kinds = {v["kind"] for v in result.violations}
    assert kinds == {"isotony"}
    witness_pairs = {tuple(v["regions"]) for v in result.violations}
    assert ("bottom", "O1") in witness_pairs


def test_validate_catches_missing_join(amb4):
    st = SpacetimePoset(
        ["bottom", "O1", "O2"],
        [("bottom", "O1"), ("bottom", "O2")],
        [("O1", "O2")],
    )
    triv = Partition.trivial(amb4)
    spec = NetSpec(spacetime=st, assignment={"bottom": triv, "O1": triv, "O2": triv})
    result = validate_net(spec)
    assert not result.ok
    assert any(
        v["kind"] == "lattice" and v["detail"] == "missing join"
        for v in result.violations
    )


def test_validate_catches_missing_meet(amb4):
    st = SpacetimePoset(
        ["O1", "O2", "top"],
        [("O1", "top"), ("O2", "top")],
        [],
    )
    triv = Partition.trivial(amb4)
    spec = NetSpec(spacetime=st, assignment={"O1": triv, "O2": triv, "top": triv})
    result = validate_net(spec)
    assert any(
        v["kind"] == "lattice" and v["detail"] == "missing meet"
        for v in result.violations
    )


def test_net_spec_requires_shared_ambient(amb3, amb4):
    with pytest.raises(InputError):
        NetSpec(
            spacetime=SpacetimePoset(["r", "s"], [("r", "s")], []),
            assignment={"r": Partition.trivial(amb3), "s": Partition.trivial(amb4)},
        )


def test_validate_catches_cycles_and_reflexive_spacelike(amb4):
    st = SpacetimePoset(
        ["x", "y"],
        [("x", "y"), ("y", "x")],
        [("x", "x")],
    )
    triv = Partition.trivial(amb4)
    spec = NetSpec(spacetime=st, assignment={"x": triv, "y": triv})
    result = validate_net(spec)
    kinds = {v["kind"] for v in result.violations}
    assert "antisymmetry" in kinds
    assert "spacelike" in kinds


def test_unknown_labels_are_input_errors():
    with pytest.raises(InputError):
        SpacetimePoset(["a"], [("a", "b")], [])
    with pytest.raises(InputError):
        SpacetimePoset(["a", "a"], [], [])
    with pytest.raises(InputError):
        SpacetimePoset(["a"], [], [("a", "zzz")])


def test_net_spec_requires_total_assignment(amb4):
    with pytest.raises(InputError):
        NetSpec(spacetime=diamond(), assignment={"bottom": Partition.trivial(amb4)})


def test_analyze_square_net(amb4):
    report = analyze_net(square_net(amb4))
    assert report.validation.ok
    assert len(report.pairs) == 1
    pa = report.pairs[0]
    assert pa.regions == ("O1", "O2")
    assert pa.meet_region == "bottom"
    assert not pa.meet_differs
    assert pa.hierarchy.product_sense is True
    assert pa.hierarchy is pa.descent.hierarchy
    assert pa.hierarchy.unit_law is False
    assert report.strongly_local_net is True
    assert report.sheaf_net is False
    assert report.cstar_independent_net is True


def test_analyze_trivial_net(amb4):
    triv = Partition.trivial(amb4)
    spec = NetSpec(
        spacetime=diamond(),
        assignment={r: triv for r in ("bottom", "O1", "O2", "top")},
    )
    report = analyze_net(spec)
    assert report.strongly_local_net is True
    assert report.sheaf_net is True
    assert report.cstar_independent_net is True


def test_analyze_halves_net(amb3):
    left = Partition.from_blocks(amb3, [["0", "1"], ["2"]])
    right = Partition.from_blocks(amb3, [["0"], ["1", "2"]])
    spec = NetSpec(
        spacetime=diamond(),
        assignment={
            "bottom": Partition.trivial(amb3),
            "O1": left,
            "O2": right,
            "top": Partition.discrete(amb3),
        },
    )
    report = analyze_net(spec)
    assert report.strongly_local_net is True
    assert report.cstar_independent_net is False
    assert report.sheaf_net is False


def test_analyze_empty_spacelike_relation_is_vacuous(amb4):
    spec = NetSpec(
        spacetime=diamond(spacelike=()),
        assignment=square_net(amb4).assignment,
    )
    report = analyze_net(spec)
    assert report.pairs == ()
    assert report.strongly_local_net is True
    assert report.sheaf_net is True


def test_analyze_rejects_invalid_net(amb4):
    spec = square_net(amb4)
    bad = NetSpec(
        spacetime=spec.spacetime,
        assignment={**dict(spec.assignment), "bottom": Partition.discrete(amb4)},
    )
    with pytest.raises(InputError):
        analyze_net(bad)


def test_net_meet_algebra_may_be_smaller_than_intersection(amb4):
    # assign the trivial algebra at the meet even though A n B is bigger
    a = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    spec = NetSpec(
        spacetime=diamond(),
        assignment={
            "bottom": Partition.trivial(amb4),
            "O1": a,
            "O2": a,
            "top": a,
        },
    )
    report = analyze_net(spec)
    pa = report.pairs[0]
    assert pa.meet_algebra == Partition.trivial(amb4)
    assert pa.intersection == a
    assert pa.meet_differs


def test_multiple_spacelike_pairs_in_label_order(amb3):
    # three mutually spacelike mid-level regions over a five-region lattice
    left = Partition.from_blocks(amb3, [["0", "1"], ["2"]])
    right = Partition.from_blocks(amb3, [["0"], ["1", "2"]])
    outer = Partition.from_blocks(amb3, [["0", "2"], ["1"]])
    st = SpacetimePoset(
        ["bot", "A", "B", "C", "top"],
        [("bot", "A"), ("bot", "B"), ("bot", "C"),
         ("A", "top"), ("B", "top"), ("C", "top")],
        [("C", "A"), ("B", "A"), ("B", "C")],
    )
    spec = NetSpec(
        spacetime=st,
        assignment={
            "bot": Partition.trivial(amb3),
            "A": left,
            "B": right,
            "C": outer,
            "top": Partition.discrete(amb3),
        },
    )
    report = analyze_net(spec)
    assert [p.regions for p in report.pairs] == [("A", "B"), ("A", "C"), ("B", "C")]
    assert all(p.meet_region == "bot" for p in report.pairs)
    # every pair here is strongly local over the trivial meet, none is a sheaf
    assert report.strongly_local_net is True
    assert report.sheaf_net is False


def test_no_drift_between_net_and_pair_level_reports(amb4):
    from netsheaf import AlgebraPair, hierarchy_report, sheaf_report

    spec = square_net(amb4)
    pa = analyze_net(spec).pairs[0]
    pair = AlgebraPair(
        spec.assignment["O1"], spec.assignment["O2"],
        meet_algebra=spec.assignment["bottom"],
    )
    direct_hierarchy = hierarchy_report(pair)
    direct_descent = sheaf_report(pair)
    assert pa.hierarchy.to_json() == direct_hierarchy.to_json()
    assert "".join(json_parts(pa.descent.to_json())) == "".join(
        json_parts(direct_descent.to_json())
    )


def test_flags_invariant_under_region_and_point_relabeling(amb4):
    base = analyze_net(square_net(amb4))
    # permute ambient points
    for perm in list(permutations(range(4)))[:8]:
        amb = amb4
        relabel = lambda p: Partition(amb, tuple(p.rgs[perm[i]] for i in range(4)))
        spec = NetSpec(
            spacetime=diamond(),
            assignment={r: relabel(p) for r, p in square_net(amb4).assignment.items()},
        )
        report = analyze_net(spec)
        assert report.strongly_local_net == base.strongly_local_net
        assert report.sheaf_net == base.sheaf_net
        assert report.cstar_independent_net == base.cstar_independent_net
    # permute region labels
    renames = {"bottom": "w", "O1": "r1", "O2": "r2", "top": "z"}
    st = SpacetimePoset(
        [renames[r] for r in ("bottom", "O1", "O2", "top")],
        [(renames["bottom"], renames["O1"]), (renames["bottom"], renames["O2"]),
         (renames["O1"], renames["top"]), (renames["O2"], renames["top"])],
        [(renames["O1"], renames["O2"])],
    )
    spec = NetSpec(
        spacetime=st,
        assignment={renames[r]: p for r, p in square_net(amb4).assignment.items()},
    )
    report = analyze_net(spec)
    assert report.strongly_local_net == base.strongly_local_net
    assert report.sheaf_net == base.sheaf_net
