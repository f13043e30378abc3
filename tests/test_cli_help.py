"""Golden argparse texts: `--help` of the top level and of every command,
`--version`, the usage errors for no command, an unknown command, a missing
input and an unrecognised option, and the argv forms that only argparse
reads (an abbreviated option, `--opt=value`, a bad int, a repeated flag, a
stray positional, `--`, a dash-led value), each with COLUMNS fixed, compared
byte for byte with tests/fixtures/golden/help.json.

Regenerate (only when a text is meant to change) with

    PYTHONPATH=src python tests/test_cli_help.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netsheaf.cli
from netsheaf.cli import _COMMANDS, _COMMON, _build_parser, _read_argv, main

OUTPUTS = Path(__file__).parent / "fixtures" / "golden" / "help.json"
COLUMNS = "80"
COMMANDS = ("check-pair", "descent", "check-net", "valuations", "contexts")

CASES = {
    "help": ["--help"],
    "version": ["--version"],
    "no-command": [],
    "unknown-command": ["frobnicate", "in.json"],
    "unknown-option": ["check-pair", "in.json", "--frobnicate"],
    **{f"{command}.help": [command, "--help"] for command in COMMANDS},
    **{f"{command}.missing-input": [command] for command in COMMANDS},
    # forms that argparse reads and the command table does not; the input
    # file is missing, so a run that argparse accepts ends in one error line
    "abbreviated-option": ["check-pair", "missing.json", "--js"],
    "option-equals-value": ["contexts", "missing.json", "--max-bell=5"],
    "invalid-int": ["descent", "missing.json", "--max-bell", "x"],
    "repeated-flag": ["check-net", "missing.json", "--json", "--json"],
    "extra-positional": ["check-pair", "missing.json", "extra.json"],
    "double-dash": ["descent", "--", "missing.json"],
    "dash-led-value": ["valuations", "missing.json", "--mu2", "-1/2,3/2"],
}


def run_case(argv: list[str]) -> dict:
    """Run main(argv) with COLUMNS fixed; argparse ends each of these runs
    with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_argparse_text_matches_the_golden_record(name, recorded):
    assert run_case(CASES[name]) == recorded[name]


def test_a_command_builds_only_its_own_subparser(monkeypatch, tmp_path):
    # a well-formed command builds no parser; an argv that the table read
    # declines adds that command's subparser alone; --help, a missing or an
    # unknown command add all five
    added = []
    real = netsheaf.cli._build_parser

    def counting(command=None):
        parser = real(command)
        added.append(len(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(netsheaf.cli, "_build_parser", counting)
    missing = str(tmp_path / "missing.json")
    for command in COMMANDS:
        run_case([command, missing])
    assert added == []
    for command in COMMANDS:
        run_case([command, missing, "--js"])
    assert added == [1] * len(COMMANDS)
    added.clear()
    for argv in (["--help"], [], ["frobnicate"]):
        run_case(argv)
    assert added == [len(COMMANDS)] * 3


# -- the table read against argparse ---------------------------------------------

FLAGS = sorted({flag for _, _, options in _COMMANDS.values()
                for flag, _ in _COMMON[1:] + options})
ODD = ["--", "-h", "--help", "--version", "--js", "--max", "--max-bell=5", "--seed=-1",
       "--require=unit-law", "--mu", "-", "--frobnicate", "-1", "-1/2,3/2", "", "extra.json"]
INT_VALUES = ["5", "0", " 7", "1_0", "+3", "x", "", "-1"]
TEXT_VALUES = ["x", "", "in.json", "a b", "1/2,1/2", "unit-law", "check-pair", "-1/2,3/2",
               "--json"]


@st.composite
def argvs(draw):
    """A well-formed argv (a command, its own flags in any order with a
    value each if valued, and one input anywhere), then up to two changes:
    a token inserted anywhere (any command's flag, an abbreviation, an
    =-form, "--", -h, --version, a dash-led or empty value, a stray
    positional) or the command replaced or dropped."""
    command = draw(st.sampled_from(COMMANDS))
    _, _, options = _COMMANDS[command]
    own = dict(_COMMON[1:] + options)
    tokens = []
    for flag in draw(st.lists(st.sampled_from(sorted(own)), unique=True, max_size=4)):
        tokens.append(flag)
        if own[flag].get("action") != "store_true":
            values = INT_VALUES if own[flag].get("type") is int else TEXT_VALUES
            tokens.append(draw(st.sampled_from(values)))
    tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["in.json", "", "x y"])))
    argv = [command, *tokens]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 9)):
            token = draw(st.sampled_from(FLAGS + ODD) | st.text("-=x1 ", max_size=3))
            argv.insert(draw(st.integers(0, len(argv))), token)
        else:
            argv[:1] = draw(st.sampled_from([[], ["frobnicate"], ["--version"], ["-h"]]))
    return argv


def argparse_namespace(argv: list[str]) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(_build_parser(argv[0]).parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse rejects {argv} that the table read accepts: {err.getvalue()}")


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_table_read_agrees_with_argparse(argv):
    args = _read_argv(argv)
    if args is not None:
        assert vars(args) == argparse_namespace(argv)


def test_the_table_read_declines_every_recorded_case():
    # each golden case is one that argparse alone reads
    assert [name for name, argv in CASES.items() if _read_argv(argv) is not None] == []


def readme_argvs() -> list[list[str]]:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return [line.split("#")[0].split()[1:] for line in readme.splitlines()
            if line.startswith("netsheaf ") and line.split()[1] in _COMMANDS]


def perfbench_argvs() -> list[list[str]]:
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # the dataclasses of the module look it up by name while it executes
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return [case.argv(Path("doc.json"), 7) for name in workloads.WORKLOADS
            for case in workloads.cases_for(name)]


def test_the_table_reads_every_documented_and_benchmarked_argv():
    cases = readme_argvs() + perfbench_argvs()
    assert len(cases) >= 6 + 12
    for argv in cases:
        args = _read_argv(argv)
        assert args is not None, argv
        assert vars(args) == argparse_namespace(argv)


def record():
    outputs = {name: run_case(argv) for name, argv in CASES.items()}
    OUTPUTS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
