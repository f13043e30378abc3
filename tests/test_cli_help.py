"""Golden argparse texts: `--help` of the top level and of every command,
`--version`, and the usage errors for no command, an unknown command, a
missing input and an unrecognised option, each with COLUMNS fixed, compared
byte for byte with tests/fixtures/golden/help.json.

Regenerate (only when a text is meant to change) with

    PYTHONPATH=src python tests/test_cli_help.py
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
from netsheaf.cli import main

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
    # each command's run adds one subparser to the top level; --help, a
    # missing or an unknown command add all five
    added = []
    real = netsheaf.cli._build_parser

    def counting(command=None):
        parser = real(command)
        added.append(len(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(netsheaf.cli, "_build_parser", counting)
    for command in COMMANDS:
        run_case([command, str(tmp_path / "missing.json")])
    assert added == [1] * len(COMMANDS)
    added.clear()
    for argv in (["--help"], [], ["frobnicate"]):
        run_case(argv)
    assert added == [len(COMMANDS)] * 3


def record():
    outputs = {name: run_case(argv) for name, argv in CASES.items()}
    OUTPUTS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
