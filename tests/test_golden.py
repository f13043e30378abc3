"""Golden CLI outputs: stdout, stderr and exit status of every command on
every fixture, text and --json, plus the DOT files of `descent --dot` and
`contexts --dot`, and `check-pair` on three more matrix pairs, compared byte
for byte with the recorded files in tests/fixtures/golden/.

Regenerate (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

import netsheaf.cli
import netsheaf.descent
from netsheaf.cli import main
from netsheaf.contexts import FinitePoset
from netsheaf.descent import DescentReport
from netsheaf.net import NetReport

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
OUTPUTS = GOLDEN / "cli.json"

COMMANDS = ("check-pair", "descent", "check-net", "valuations", "contexts")
# adjacent_pairs ({a,b}{c}{d} against {a}{b,c}{d}) is the one whose unit-law
# witnesses come from the sweep over C_(A v B): Bell(3)^2 > Bell(4).
# three_regions is the one net with several spacelike pairs, and invalid_net
# the one whose net fails validation, so `check-net` lists its violations.
PARTITION_FIXTURES = (
    "square_pair", "overlapping_halves", "trivial_pair", "adjacent_pairs",
    "three_regions", "invalid_net",
)
FIXTURE_NAMES = PARTITION_FIXTURES + ("pauli_pair",)
# Each fixture defines several algebras, so `contexts` also runs on one by name.
LEFT_ALGEBRA = {"square_pair": "A", "overlapping_halves": "L", "trivial_pair": "full",
                "adjacent_pairs": "A", "three_regions": "B", "invalid_net": "A",
                "pauli_pair": "Z"}
# Full M_4 against the scalars, M_2 (x) 1 against 1 (x) M_2, and M_2 on each
# summand of M_2 (+) M_2: the pairs of the benchmark's `matrix` workload.
MATRIX_FIXTURES = ("full_vs_scalars_pair", "tensor_pair", "block_diagonal_pair")


def _cases() -> dict[str, dict]:
    """Case name -> the argv after the fixture path, and the DOT file it writes."""
    cases = {}
    for fixture in FIXTURE_NAMES:
        for suffix, extra in (("", []), (".json", ["--json"])):
            for command in COMMANDS:
                cases[f"{fixture}.{command}{suffix}"] = {
                    "fixture": fixture, "argv": [command, *extra], "dot": None,
                }
            cases[f"{fixture}.contexts-left{suffix}"] = {
                "fixture": fixture,
                "argv": ["contexts", "--algebra", LEFT_ALGEBRA[fixture], *extra],
                "dot": None,
            }
    for fixture in PARTITION_FIXTURES:
        cases[f"{fixture}.descent.dot"] = {
            "fixture": fixture, "argv": ["descent", "--dot", "out.dot"],
            "dot": f"{fixture}.descent.dot",
        }
        cases[f"{fixture}.contexts.dot"] = {
            "fixture": fixture, "argv": ["contexts", "--algebra", "full", "--dot", "out.dot"],
            "dot": f"{fixture}.contexts.dot",
        }
    for fixture in MATRIX_FIXTURES:
        for suffix, extra in (("", []), (".json", ["--json"])):
            cases[f"{fixture}.check-pair{suffix}"] = {
                "fixture": fixture, "argv": ["check-pair", *extra], "dot": None,
            }
    return cases


CASES = _cases()


def run_case(case: dict, workdir: Path) -> tuple[dict, str | None]:
    """Run one case in workdir (where a DOT file is written as out.dot)."""
    command, *rest = case["argv"]
    argv = [command, str(FIXTURES / f"{case['fixture']}.json"), *rest]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        dot = (workdir / "out.dot").read_text(encoding="utf-8") if case["dot"] else None
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, dot


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_golden_record(name, recorded, tmp_path):
    actual, dot = run_case(CASES[name], tmp_path)
    assert actual == recorded[name]
    if CASES[name]["dot"]:
        expected = (GOLDEN / CASES[name]["dot"]).read_bytes()
        assert dot.encode("utf-8") == expected


def test_no_command_but_descent_dot_builds_order_masks(recorded, tmp_path, monkeypatch):
    # every case but `descent --dot` runs with FinitePoset unconstructible:
    # no command orders contexts through masks unless it draws the product
    def no_poset(*args, **kwargs):
        raise AssertionError("FinitePoset built")

    monkeypatch.setattr(FinitePoset, "__init__", no_poset)
    for name, case in sorted(CASES.items()):
        if case["argv"][0] == "descent" and "--dot" in case["argv"]:
            continue
        actual, _ = run_case(case, tmp_path)
        assert actual == recorded[name], name


def test_text_runs_build_no_json_result(recorded, tmp_path, monkeypatch):
    # text `check-net` and `descent` print the same bytes when every to_json
    # of their results, and the renderer of the stability rows, raises: only
    # --json builds the result it prints
    def no_json(*_):
        raise AssertionError("--json result built for a text run")

    for holder in (NetReport, DescentReport):
        monkeypatch.setattr(holder, "to_json", no_json)
    monkeypatch.setattr(netsheaf.cli, "_violation_rows", no_json)
    for name, case in sorted(CASES.items()):
        if case["argv"][0] in ("check-net", "descent") and "--json" not in case["argv"]:
            actual, _ = run_case(case, tmp_path)
            assert actual == recorded[name], name


def test_descent_builds_no_violation_object(recorded, tmp_path, monkeypatch):
    # every `descent` case, text, --json and --dot, prints the same bytes
    # when a StabilityViolation cannot be built: text counts the stability
    # rows and --json renders them straight from the contexts
    def no_violation(*_):
        raise AssertionError("StabilityViolation built by `descent`")

    monkeypatch.setattr(netsheaf.descent, "StabilityViolation", no_violation)
    for name, case in sorted(CASES.items()):
        if case["argv"][0] == "descent":
            actual, _ = run_case(case, tmp_path)
            assert actual == recorded[name], name


def record():
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            outputs[name], dot = run_case(case, Path(work))
        if case["dot"]:
            (GOLDEN / case["dot"]).write_bytes(dot.encode("utf-8"))
    OUTPUTS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
