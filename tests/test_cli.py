import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netsheaf
import netsheaf.cli
from netsheaf import AlgebraPair, AmbientSet, Partition
from netsheaf.cli import _violation_rows, main
from netsheaf.jsontext import json_parts
from netsheaf.descent import stability_rows
from netsheaf.partitions import all_partitions

from conftest import FIXTURES, ambient, oracle_covering_stability

SQUARE = str(FIXTURES / "square_pair.json")
HALVES = str(FIXTURES / "overlapping_halves.json")
TRIVIAL = str(FIXTURES / "trivial_pair.json")
PAULI = str(FIXTURES / "pauli_pair.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_check_pair_square(capsys):
    code, data, _ = run_json(capsys, "check-pair", SQUARE)
    assert code == 0
    assert data["exit_status"] == 0
    hierarchy = data["result"]["hierarchy"]
    assert hierarchy["product_sense"] is True
    assert hierarchy["strong_locality"] is True
    assert hierarchy["unit_law"] is False
    assert data["input_digest"].startswith("sha256:")


def test_check_pair_require_failure_exits_2(capsys):
    code, out, _ = run(capsys, "check-pair", SQUARE, "--require", "unit-law")
    assert code == 2
    assert "unit_law" in out


def test_check_pair_require_success_exits_0(capsys):
    code, _, _ = run(capsys, "check-pair", SQUARE, "--require", "product-sense")
    assert code == 0


def test_check_pair_trivial_all_true(capsys):
    code, data, _ = run_json(capsys, "check-pair", TRIVIAL)
    assert code == 0
    h = data["result"]["hierarchy"]
    assert all(
        h[name] is True
        for name in (
            "microcausality",
            "extended_locality",
            "schlieder",
            "cstar_independent",
            "product_sense",
            "strong_locality",
            "unit_law",
        )
    )


def test_check_pair_unknown_algebra_exits_1(tmp_path, capsys):
    doc = json.loads((FIXTURES / "square_pair.json").read_text())
    doc["pair"]["left"] = "missing"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-pair", str(bad))
    assert code == 1
    assert "missing" in err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check-pair", str(bad))
    assert code == 1
    assert "JSON" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "check-pair", "no_such_file.json")
    assert code == 1


def test_descent_square(capsys):
    code, data, _ = run_json(capsys, "descent", SQUARE)
    assert code == 0
    descent = data["result"]["descent"]
    assert descent["h"]["source_size"] == 15
    assert descent["h"]["target_size"] == 4
    assert descent["sheaf"] is False
    assert data["result"]["covering_stability"]["count"] > 0


def test_descent_trivial_sheaf_true(capsys):
    code, data, _ = run_json(capsys, "descent", TRIVIAL)
    assert code == 0
    assert data["result"]["descent"]["sheaf"] is True


def test_descent_rejects_matrix_engine(capsys):
    code, _, err = run(capsys, "descent", PAULI)
    assert code == 1
    assert "partition engine" in err


def test_descent_writes_dot(tmp_path, capsys):
    dot = tmp_path / "h.dot"
    code, _, _ = run(capsys, "descent", SQUARE, "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "cluster_source" in text


@pytest.mark.parametrize("command", ["descent", "contexts"])
@pytest.mark.parametrize("target", ["missing/h.dot", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_dot_path_is_an_input_error(command, target, tmp_path, capsys):
    # a missing directory or a directory: exit 1 with one error line, no traceback
    path = tmp_path / target
    argv = [command, SQUARE, "--dot", str(path)]
    if command == "contexts":
        argv[2:2] = ["--algebra", "A"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write DOT file {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_check_net_square(capsys):
    code, data, _ = run_json(capsys, "check-net", SQUARE)
    assert code == 0
    summary = data["result"]["summary"]
    assert summary["strongly_local_net"] is True
    assert summary["sheaf_net"] is False


def test_check_net_halves(capsys):
    code, data, _ = run_json(capsys, "check-net", HALVES)
    assert code == 0
    summary = data["result"]["summary"]
    assert summary["strongly_local_net"] is True
    assert summary["cstar_independent_net"] is False
    assert summary["sheaf_net"] is False


def test_check_net_isotony_violation_exits_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "square_pair.json").read_text())
    doc["net"]["assignment"]["bottom"] = "full"
    bad = tmp_path / "bad_net.json"
    bad.write_text(json.dumps(doc))
    code, data, _ = run_json(capsys, "check-net", str(bad))
    assert code == 2
    assert data["exit_status"] == 2
    assert any(
        v["kind"] == "isotony" for v in data["result"]["validation"]["violations"]
    )


def test_check_net_without_net_section_exits_1(capsys):
    code, _, err = run(capsys, "check-net", TRIVIAL)
    assert code == 1
    assert "net section" in err


def test_valuations_halves_witness(capsys):
    code, data, _ = run_json(capsys, "valuations", HALVES)
    assert code == 0
    ext = data["result"]["product_extension"]
    assert ext["exists"] is False
    assert ext["witness"] == ["{2}", "{0}"]
    assert ext["witness_mass"] == [1, 4]
    assert data["result"]["valuation_independence"] is False


def test_valuations_square_product_weights(capsys):
    code, data, _ = run_json(
        capsys, "valuations", SQUARE, "--mu1", "1/2,1/2", "--mu2", "1/3,2/3"
    )
    assert code == 0
    ext = data["result"]["product_extension"]
    assert ext["exists"] is True
    weights = ext["valuation"]
    assert weights == {"{a}": [1, 6], "{b}": [1, 3], "{c}": [1, 6], "{d}": [1, 3]}
    assert sum(n / d for n, d in weights.values()) == 1.0


def test_valuations_unnormalized_exits_1(capsys):
    code, _, err = run(capsys, "valuations", SQUARE, "--mu1", "1/2,1/3")
    assert code == 1
    assert "sum to 1" in err


def test_valuations_named_contexts(capsys):
    code, data, _ = run_json(
        capsys, "valuations", SQUARE, "--context1", "triv", "--context2", "B"
    )
    assert code == 0
    assert data["result"]["context_left"] == "{a,b,c,d}"


def test_valuations_rejects_non_context(capsys):
    # "full" is not a coarsening of A, so it is not one of A's contexts
    code, _, err = run(capsys, "valuations", SQUARE, "--context1", "full")
    assert code == 1
    assert "not a context" in err


def test_valuations_rejects_wrong_weight_count(capsys):
    code, _, err = run(capsys, "valuations", SQUARE, "--mu1", "1/3,1/3,1/3")
    assert code == 1
    assert "expected 2 weights" in err


def test_valuations_accepts_exact_decimal_literals(capsys):
    # "0.5" is an exact rational literal, so this is fine
    code, data, _ = run_json(capsys, "valuations", SQUARE, "--mu1", "0.5,0.5")
    assert code == 0
    assert data["result"]["mu1"] == {"{a,b}": [1, 2], "{c,d}": [1, 2]}


def test_valuations_rejects_malformed_rational(capsys):
    code, _, err = run(capsys, "valuations", SQUARE, "--mu1", "a/b,1/2")
    assert code == 1
    assert "not an exact rational" in err


def test_contexts_enumeration(capsys):
    code, data, _ = run_json(capsys, "contexts", TRIVIAL, "--algebra", "full")
    assert code == 0
    assert data["result"]["count"] == 5
    assert data["result"]["hasse_edges"] == 6
    assert len(data["result"]["contexts"]) == 5


PARTITION_FIXTURES = (
    "adjacent_pairs", "overlapping_halves", "square_pair", "trivial_pair",
    "three_regions", "invalid_net",
)


def test_no_command_walks_the_hasse_covers_without_dot(monkeypatch, capsys):
    # the Hasse-cover walk serves only the DOT export: every other command,
    # on every partition fixture and in both output modes, prints the same
    # bytes when the walk raises
    runs = []
    for name in PARTITION_FIXTURES:
        path = FIXTURES / f"{name}.json"
        runs += [[command, str(path)] for command in ("check-pair", "check-net", "descent")]
        algebras = json.loads(path.read_text())["algebras"]
        runs += [["contexts", str(path), "--algebra", algebra] for algebra in algebras]
    runs += [argv + ["--json"] for argv in runs]
    expected = [run(capsys, *argv) for argv in runs]

    def no_walk(*_):
        raise AssertionError("Hasse covers walked outside the DOT export")

    monkeypatch.setattr(netsheaf.contexts, "_merge_walk", no_walk)
    assert [run(capsys, *argv) for argv in runs] == expected


def test_check_net_validates_the_net_once(monkeypatch, capsys):
    # one validate_net call per run, whether the net is valid or its
    # violations are listed (exit 2), in both output modes
    calls = []
    validate = netsheaf.net.validate_net

    def counted(spec):
        calls.append(spec)
        return validate(spec)

    monkeypatch.setattr(netsheaf.net, "validate_net", counted)
    monkeypatch.setattr(netsheaf.cli, "validate_net", counted, raising=False)
    for name, status in (("square_pair", 0), ("three_regions", 0), ("invalid_net", 2)):
        for extra in ((), ("--json",)):
            calls.clear()
            code, _, _ = run(capsys, "check-net", str(FIXTURES / f"{name}.json"), *extra)
            assert (code, len(calls)) == (status, 1), (name, extra)


def test_contexts_defaults_to_single_algebra(tmp_path, capsys):
    doc = {"ambient": ["x", "y"], "algebras": {"only": [["x"], ["y"]]}}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    dot = tmp_path / "lattice.dot"
    code, data, _ = run_json(capsys, "contexts", str(path), "--dot", str(dot))
    assert code == 0
    assert data["result"]["algebra"] == "only"
    assert data["result"]["count"] == 2
    assert dot.read_text().startswith("digraph poset")


def test_check_pair_without_pair_section_exits_1(tmp_path, capsys):
    doc = {"ambient": ["x"], "algebras": {"a": [["x"]]}}
    path = tmp_path / "nopair.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check-pair", str(path))
    assert code == 1
    assert "no pair section" in err


def test_valuations_rejects_non_context_on_the_right(capsys):
    code, _, err = run(capsys, "valuations", SQUARE, "--context2", "full")
    assert code == 1
    assert "right algebra" in err


def test_contexts_needs_algebra_when_ambiguous(capsys):
    code, _, err = run(capsys, "contexts", SQUARE)
    assert code == 1
    assert "--algebra" in err


def test_contexts_respects_max_bell(capsys):
    code, _, err = run(capsys, "contexts", TRIVIAL, "--algebra", "full", "--max-bell", "3")
    assert code == 1
    assert "guard" in err


def test_check_pair_respects_max_bell_guard(capsys):
    # the unit-law sweep needs Bell(4) = 15 contexts of the join
    code, _, err = run(capsys, "check-pair", SQUARE, "--max-bell", "3")
    assert code == 1
    assert "guard" in err


def test_descent_refuses_the_six_point_stability_sweep(tmp_path, capsys):
    points = list("abcdef")
    path = tmp_path / "discrete6.json"
    path.write_text(
        json.dumps(
            {
                "ambient": points,
                "algebras": {"full": [[p] for p in points]},
                "pair": {"left": "full", "right": "full"},
            }
        )
    )
    code, out, err = run(capsys, "descent", str(path), "--json")
    assert code == 1
    assert out == ""
    assert f"{203**3} triples" in err and "guard" in err


def test_valuations_answers_the_seven_and_ten_point_self_pairs(tmp_path, capsys):
    # 877^2 and 115,975^2 context pairs: decided on (A, B), with 2 * 3
    # sampled extensions, not one sweep per context pair
    for n in (7, 10):
        points = [f"p{i}" for i in range(n)]
        path = tmp_path / f"discrete{n}.json"
        path.write_text(
            json.dumps(
                {
                    "ambient": points,
                    "algebras": {"full": [[p] for p in points]},
                    "pair": {"left": "full", "right": "full"},
                }
            )
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "valuations", str(path), "--json")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert '"valuation_independence": false' in out


def test_descent_runs_every_guard_before_any_work(tmp_path, capsys, monkeypatch):
    # the full 7-point algebra against a 3-block one over the scalars: the
    # descent map is admitted (877 * 5 = 4,385 fibered pairs), the stability
    # sweep is not (877 * 877 * 5 = 3,845,645 triples), so nothing may run
    import netsheaf.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("descent work started before the stability guard")

    monkeypatch.setattr(cli, "sheaf_report", no_work)
    points = [f"p{i}" for i in range(7)]
    path = tmp_path / "full7_vs_3.json"
    path.write_text(
        json.dumps(
            {
                "ambient": points,
                "algebras": {
                    "full": [[p] for p in points],
                    "K": [points[i::3] for i in range(3)],
                    "scalars": [points],
                },
                "pair": {"left": "full", "right": "K", "meet_algebra": "scalars"},
            }
        )
    )
    code, out, err = run(capsys, "descent", str(path), "--json")
    assert code == 1
    assert out == ""
    assert err == (
        "error: covering stability of {p0}{p1}{p2}{p3}{p4}{p5}{p6} | {p0,p3,p6}{p1,p4}{p2,p5} "
        "needs |C_(A v B)|*|C_A|*|C_B| = 877*877*5 = 3845645 triples, "
        "exceeding the guard of 1000000\n"
    )


def test_check_net_refuses_two_full_regions_over_the_scalars(monkeypatch, tmp_path, capsys):
    # the fibered product of two full 6-point algebras over the scalars has
    # 203^2 = 41,209 elements; its guard refuses before either context sweep
    def no_sweep(*_):
        raise AssertionError("a context sweep ran before the product guard")

    monkeypatch.setattr(netsheaf.independence, "_strong_locality_witness", no_sweep)
    monkeypatch.setattr(netsheaf.independence, "_sweep_failures", no_sweep)
    points = list("abcdef")
    path = tmp_path / "full_over_scalars.json"
    path.write_text(
        json.dumps(
            {
                "ambient": points,
                "algebras": {"full": [[p] for p in points], "scalars": [points]},
                "net": {
                    "regions": ["bottom", "O1", "O2", "top"],
                    "leq": [["bottom", "O1"], ["bottom", "O2"], ["O1", "top"], ["O2", "top"]],
                    "spacelike": [["O1", "O2"]],
                    "assignment": {
                        "bottom": "scalars", "O1": "full", "O2": "full", "top": "full"
                    },
                },
            }
        )
    )
    code, out, err = run(capsys, "check-net", str(path), "--json")
    assert code == 1
    assert out == ""
    assert err == (
        "error: fibered context product of {a}{b}{c}{d}{e}{f} | {a}{b}{c}{d}{e}{f} "
        "over {a,b,c,d,e,f} would have 41209 elements, exceeding the guard of 10000\n"
    )


def test_context_and_dimension_guards_refuse_with_their_messages(tmp_path, capsys):
    code, out, err = run(capsys, "check-pair", SQUARE, "--max-bell", "3")
    assert (code, out) == (1, "")
    assert err == (
        "error: context poset of {a}{b}{c}{d} would have Bell(4) = 15 elements and "
        "60 comparable pairs, exceeding the guard of 3\n"
    )
    path = tmp_path / "large_matrix.json"
    path.write_text(json.dumps({
        "algebras": {"M": {"dimension": 9}, "N": {"dimension": 2}},
        "pair": {"left": "M", "right": "N"},
    }))
    code, out, err = run(capsys, "check-pair", str(path))
    assert (code, out) == (1, "")
    assert err == "error: matrix algebra 'M' has dimension 9, exceeding the guard of 7\n"


def test_each_pair_is_decided_once(monkeypatch, tmp_path, capsys):
    # one context-free pass and one decision each of strong locality and the
    # unit law per partition pair, whichever command asks; a witness search
    # runs only for a failure: the strong-locality sweep on (L, S), and the
    # join image on each incomparable pair, since |C_A|*|C_B| <= |C_(A v B)|
    # on all of them, so the unit-law sweep over C_(A v B) never runs.
    # Covering stability, which only `descent` runs, sweeps each cover with
    # the shared block-string tables and makes no unit-law sweep call either
    assert not hasattr(netsheaf.descent, "_sweep_failures")
    calls = Counter()
    for module, name in (
        (netsheaf.independence, "_pair_facts"),
        (netsheaf.independence, "strong_locality"),
        (netsheaf.independence, "unit_law"),
        (netsheaf.independence, "_strong_locality_witness"),
        (netsheaf.independence, "_join_image_failures"),
        (netsheaf.independence, "_sweep_failures"),
    ):
        key = f"{module.__name__}.{name}"

        def counted(*args, _key=key, _fn=getattr(module, name)):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    path = tmp_path / "two_pairs.json"
    path.write_text(
        json.dumps(
            {
                "ambient": list("abcd"),
                "algebras": {
                    "scalars": [list("abcd")],
                    "L": [["a", "b"], ["c", "d"]],
                    "R": [["a", "c"], ["b", "d"]],
                    "S": [["a", "c"], ["b"], ["d"]],
                    "full": [[p] for p in "abcd"],
                },
                "net": {
                    "regions": ["bottom", "O1", "O2", "O3", "top"],
                    "leq": [["bottom", o] for o in ("O1", "O2", "O3")]
                    + [[o, "top"] for o in ("O1", "O2", "O3")],
                    "spacelike": [["O1", "O2"], ["O1", "O3"]],
                    "assignment": {
                        "bottom": "scalars", "O1": "L", "O2": "R", "O3": "S", "top": "full"
                    },
                },
            }
        )
    )
    for argv, pairs, strong_failures in (
        (("check-pair", SQUARE), 1, 0),
        (("descent", SQUARE), 1, 0),
        (("check-net", str(path)), 2, 1),
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls == Counter({
            "netsheaf.independence._pair_facts": pairs,
            "netsheaf.independence.strong_locality": pairs,
            "netsheaf.independence.unit_law": pairs,
            "netsheaf.independence._strong_locality_witness": strong_failures,
            "netsheaf.independence._join_image_failures": pairs,
            "netsheaf.independence._sweep_failures": 0,
        })


def test_check_pair_on_a_bell_10_join_runs_no_sweep_over_it(monkeypatch, tmp_path, capsys):
    # grid 2x5: A v B is the full algebra on 10 points, Bell(10) = 115,975
    # contexts, and |C_A|*|C_B| = 2*52; the unit-law witnesses come from the
    # join image, so the sweep over C_(A v B) must not run
    def no_sweep(*_):
        raise AssertionError("the unit-law sweep over C_(A v B) ran")

    monkeypatch.setattr(netsheaf.independence, "_sweep_failures", no_sweep)
    points = [f"x{i}y{j}" for i in range(2) for j in range(5)]
    path = tmp_path / "grid2x5.json"
    path.write_text(
        json.dumps(
            {
                "ambient": points,
                "algebras": {
                    "A": [[f"x{i}y{j}" for j in range(5)] for i in range(2)],
                    "B": [[f"x{i}y{j}" for i in range(2)] for j in range(5)],
                },
                "pair": {"left": "A", "right": "B"},
            }
        )
    )
    code, data, _ = run_json(capsys, "check-pair", str(path))
    assert code == 0
    hierarchy = data["result"]["hierarchy"]
    assert hierarchy["unit_law"] is False and hierarchy["strong_locality"] is True
    # every context of A v B but the joins C v D, which are pairwise distinct here
    unit = hierarchy["witnesses"]["unit_law"]
    assert unit["count"] == 115975 - 2 * 52
    assert len(unit["contexts"]) == 50 and unit["truncated"] is True


def test_comparable_pairs_run_no_unit_law_search(monkeypatch, tmp_path, capsys):
    # the discrete 7-point self-pair: |C_A|*|C_B| = 877^2 = 769,129, but the
    # pair is comparable, so the unit law needs neither the join image nor
    # the sweep over C_(A v B)
    calls = Counter()
    for name in ("_join_image_failures", "_sweep_failures"):

        def counted(*args, _name=name, _fn=getattr(netsheaf.independence, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(netsheaf.independence, name, counted)
    points = [f"p{i}" for i in range(7)]
    path = tmp_path / "discrete7.json"
    path.write_text(
        json.dumps(
            {
                "ambient": points,
                "algebras": {"full": [[p] for p in points]},
                "pair": {"left": "full", "right": "full"},
                "net": {
                    "regions": ["bottom", "O1", "O2", "top"],
                    "leq": [["bottom", "O1"], ["bottom", "O2"], ["O1", "top"], ["O2", "top"]],
                    "spacelike": [["O1", "O2"]],
                    "assignment": {r: "full" for r in ("bottom", "O1", "O2", "top")},
                },
            }
        )
    )
    for command in ("check-pair", "check-net"):
        code, data, _ = run_json(capsys, command, str(path))
        assert code == 0
        result = data["result"]
        hierarchy = result["hierarchy"] if command == "check-pair" else result["pairs"][0]["hierarchy"]
        assert hierarchy["unit_law"] is True and "unit_law" not in hierarchy["witnesses"]
    assert calls == Counter()


def test_check_net_reads_ring_components_off_the_descent_tables(monkeypatch, capsys):
    # sheaf_report takes C n A and C n B from h's table, not from the public
    # ring_component, which recomputes them
    def no_component(*_):
        raise AssertionError("ring_component called by the descent path")

    monkeypatch.setattr(netsheaf.descent, "ring_component", no_component)
    code, out, _ = run(capsys, "check-net", SQUARE)
    assert code == 0
    assert out


def test_valuations_refuses_zero_samples(tmp_path, capsys):
    # with no samples product_extension would never be spot-checked
    doc = json.loads(Path(HALVES).read_text())
    doc["options"] = {"samples": 0}
    path = tmp_path / "no_samples.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "valuations", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: option 'samples' must be at least 1, got 0\n"


def test_valuations_refuses_a_denominator_the_sampler_cannot_draw(tmp_path, capsys):
    # a denominator is cut at k - 1 points of range(1, den), whose length must
    # be a machine-size int: sys.maxsize + 1 is admitted, one more is not
    doc = json.loads(Path(HALVES).read_text())
    for bound, expected in ((sys.maxsize + 1, 0), (sys.maxsize + 2, 1)):
        doc["options"] = {"max_denominator": bound}
        path = tmp_path / "large_denominator.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "valuations", str(path))
        assert code == expected
        if expected:
            assert out == ""
            assert err == (
                f"error: option 'max_denominator' must be at most {sys.maxsize + 1}, "
                f"got {bound}\n"
            )


def test_valuations_refuses_a_denominator_below_the_block_count(tmp_path, capsys):
    # both halves have 2 blocks; no positive distribution on 2 points has a
    # common denominator of 1
    doc = json.loads(Path(HALVES).read_text())
    doc["options"] = {"max_denominator": 1}
    path = tmp_path / "small_denominator.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "valuations", str(path))
    assert code == 1
    assert out == ""
    assert err == (
        "error: option 'max_denominator' must be at least 2, the larger block count "
        "of the pair, got 1\n"
    )


@pytest.mark.parametrize("key, value", [("max_bell", 0), ("max_bell", -1), ("max_dim", -3)])
def test_non_positive_guards_are_refused(tmp_path, capsys, key, value):
    # by flag and by document option; a refused guard names itself, not a
    # refused input
    message = f"error: option '{key}' must be a positive integer, got {value}\n"
    flag = "--" + key.replace("_", "-")
    doc = json.loads(Path(SQUARE).read_text())
    doc["options"] = {key: value}
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(doc))
    for argv in (("check-pair", SQUARE, flag, str(value)), ("check-pair", str(path))):
        assert run(capsys, *argv) == (1, "", message)
    # a positive flag overrides a refused document option
    assert run(capsys, "check-pair", str(path), flag, "50")[0] == 0


def test_matrix_pair_hierarchy(capsys):
    code, data, _ = run_json(capsys, "check-pair", PAULI)
    assert code == 0
    h = data["result"]["hierarchy"]
    assert h["microcausality"] is False
    assert h["schlieder"] == "undetermined"
    assert "commutator" in h["witnesses"]["microcausality"]


def test_max_dim_guard(tmp_path, capsys):
    doc = json.loads((FIXTURES / "pauli_pair.json").read_text())
    bad = tmp_path / "pauli.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check-pair", str(bad), "--max-dim", "1")
    assert code == 1
    assert "guard" in err


def test_stdout_is_deterministic(capsys):
    _, out1, _ = run(capsys, "descent", SQUARE, "--json")
    _, out2, _ = run(capsys, "descent", SQUARE, "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "check-net", HALVES)
    _, out4, _ = run(capsys, "check-net", HALVES)
    assert out3 == out4


def test_json_round_trip_equals_in_memory(capsys):
    from netsheaf.cli import ReportEnvelope

    code, data, _ = run_json(capsys, "check-pair", SQUARE)
    rebuilt = ReportEnvelope(
        command=data["command"],
        input_digest=data["input_digest"],
        result=data["result"],
        exit_status=data["exit_status"],
    )
    assert rebuilt.to_json() == data


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_emitter_equals_json_dumps_indent_2(value):
    # non-str keys, empty containers, non-ASCII text, NaN and infinities
    assert "".join(json_parts(value)) == json.dumps(value, indent=2)


def test_emitter_refuses_what_json_dumps_refuses():
    for value in ({("a",): 1}, {"a": [1, {(1,): 2}]}, [object()], {"k": [{1, 2}]}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            json_parts(value)


def violation_dicts(pair) -> list[dict]:
    """The covering-stability violations of a pair as `descent --json`
    listed them when each was a dict of its four contexts' labels."""
    return [
        {
            "covered": str(v.covered),
            "left_context": str(v.left_context),
            "right_context": str(v.right_context),
            "generated": str(v.generated),
        }
        for v in oracle_covering_stability(pair)
    ]


def test_violation_rows_render_as_json_dumps_of_the_violation_dicts(monkeypatch):
    # every ordered pair on at most 4 points and the discrete 5-point
    # self-pair, the list alone and at the depth `descent --json` writes it,
    # with the C encoder and with the pure-Python one
    pairs = [
        AlgebraPair(a, b)
        for n in range(1, 5)
        for a in all_partitions(ambient(n))
        for b in all_partitions(ambient(n))
    ]
    full = Partition.discrete(ambient(5))
    pairs.append(AlgebraPair(full, full))
    wraps = (
        lambda v, n: v,
        lambda v, n: {"result": {"covering_stability": {"violations": v, "count": n}}},
    )
    c_encoder = netsheaf.jsontext.c_make_encoder
    for pair in pairs:
        expected = violation_dicts(pair)
        contexts, rows = stability_rows(pair)
        rendered = _violation_rows([list(c.labels()) for c in contexts], rows)
        for wrap in wraps:
            text = json.dumps(wrap(expected, len(expected)), indent=2)
            for encoder in (c_encoder, None):
                monkeypatch.setattr(netsheaf.jsontext, "c_make_encoder", encoder)
                assert "".join(json_parts(wrap(rendered, len(expected)))) == text, pair


def test_descent_json_escapes_point_names(tmp_path, capsys):
    # a quote, a backslash and a non-ASCII character in the point names
    points = ['a"', "b\\", "cé", "d"]
    algebras = {
        "A": [points[:2], points[2:]],
        "B": [[points[0], points[2]], [points[1], points[3]]],
    }
    path = tmp_path / "escaped.json"
    path.write_text(json.dumps({
        "ambient": points, "algebras": algebras, "pair": {"left": "A", "right": "B"},
    }), encoding="utf-8")
    code, out, _ = run(capsys, "descent", str(path), "--json")
    assert code == 0
    assert '"{a\\"' in out and 'b\\\\' in out and "c\\u00e9" in out
    data = json.loads(out)
    assert out == json.dumps(data, indent=2) + "\n"
    amb = AmbientSet(points)
    pair = AlgebraPair(*(Partition.from_blocks(amb, algebras[k]) for k in ("A", "B")))
    assert data["result"]["covering_stability"]["count"] > 0
    assert data["result"]["covering_stability"]["violations"] == violation_dicts(pair)


def test_json_output_is_written_whole_in_few_writes_or_not_at_all(monkeypatch):
    # 35,000 parts go out in a few joined writes, each one system call on an
    # unbuffered stdout; a value that cannot be encoded, even the last one,
    # leaves stdout untouched
    from types import SimpleNamespace

    from netsheaf.cli import ReportEnvelope, _emit

    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
    envelope = ReportEnvelope("descent", "sha256:0", {"rows": [[k] for k in range(5000)]})
    assert _emit(envelope, True, []) == 0
    assert "".join(writes) == json.dumps(envelope.to_json(), indent=2) + "\n"
    assert 1 < len(writes) < 100
    writes.clear()
    envelope.result["last"] = object()
    with pytest.raises(TypeError):
        _emit(envelope, True, [])
    assert writes == []


def test_internal_consistency_failures_exit_3(capsys):
    import argparse

    import netsheaf.cli as cli
    from netsheaf.errors import InternalConsistencyError

    def boom(args):
        raise InternalConsistencyError("routes disagreed", dump={"detail": 1})

    assert cli._dispatch(argparse.Namespace(func=boom)) == 3
    err = capsys.readouterr().err
    assert "internal consistency" in err
    assert "routes disagreed" in err


def test_installed_entry_point_round_trip():
    # the child imports the same netsheaf as this process, installed or not
    package_root = str(Path(netsheaf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "netsheaf.cli", "check-pair", SQUARE, "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tool"]["name"] == "netsheaf"
    proc2 = subprocess.run(
        [sys.executable, "-m", "netsheaf.cli", "check-pair", SQUARE, "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.stdout == proc2.stdout  # byte-identical across processes


def test_commands_import_only_the_standard_library():
    # the package is stdlib-only at runtime: in a fresh interpreter, every
    # module that importing the CLI and running each command adds is either
    # in the standard library or part of netsheaf
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import contextlib, io, json",
        "from netsheaf.cli import main",
        "codes = []",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        codes.append(main(argv))",
        "print(json.dumps([codes, sorted(set(sys.modules) - before)]))",
    ])
    runs = [[name, SQUARE] for name in ("check-pair", "check-net", "descent", "valuations")]
    runs += [["contexts", SQUARE, "--algebra", "A"], ["check-pair", PAULI]]
    package_root = str(Path(netsheaf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    codes, added = json.loads(proc.stdout)
    assert codes == [0] * len(runs)
    assert "netsheaf.cli" in added
    assert [name for name in added if name.split(".")[0] not in sys.stdlib_module_names
            and name.split(".")[0] != "netsheaf"] == []
    # a well-formed command is read off the command table, not by argparse
    assert {"argparse", "gettext", "locale"}.isdisjoint(added)


def descent_process(tmp_path, *flags, stdout, unbuffered=True):
    """`descent` on the discrete 5-point self-pair in a child process."""
    doc = {
        "ambient": [f"p{i}" for i in range(5)],
        "algebras": {"full": [[f"p{i}"] for i in range(5)]},
        "pair": {"left": "full", "right": "full"},
    }
    path = tmp_path / "discrete5.json"
    path.write_text(json.dumps(doc))
    package_root = str(Path(netsheaf.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "netsheaf.cli", "descent", str(path), *flags],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_1_without_a_message(tmp_path, unbuffered):
    # the reader takes the first 100 bytes of 6 MB and goes away
    proc = descent_process(tmp_path, "--json", stdout=subprocess.PIPE, unbuffered=unbuffered)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("flags, unbuffered", [(("--json",), True), ((), False)])
def test_full_stdout_exits_1_with_one_error_line(tmp_path, flags, unbuffered):
    # --json fails in a write, text (a few hundred bytes) in the flush
    with open("/dev/full", "wb") as full:
        proc = descent_process(tmp_path, *flags, stdout=full, unbuffered=unbuffered)
        err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"
