"""Command-line front end.

Commands: check-pair, descent, check-net, valuations, contexts.  Exit codes:
0 = analysis ran, 1 = input error (malformed document, size guard, wrong
engine), 2 = a --require condition failed, net validation found
violations, or argparse printed a usage error (unknown command or option,
missing input, bad option value), 3 = internal-consistency trap.  Output is
deterministic: identical input and command produce byte-identical stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .contexts import Contexts, dot_export, guard_contexts, hasse_edges
from .descent import guard_descent, sheaf_report, stability_rows
from .documents import InputDocument, parse_input_document
from .errors import (
    InputError,
    InternalConsistencyError,
    NetsheafError,
    SizeGuardError,
)
from .independence import CONDITIONS, hierarchy_report
from .jsontext import Rendered, json_parts
from .net import NetValidationError, analyze_net
from .partitions import bell_number, is_coarser
from .valuations import (
    Spectrum,
    Valuation,
    product_extension,
    valuation_independence_test,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REQUIREMENT = 2
EXIT_INTERNAL = 3


@dataclass
class ReportEnvelope:
    """What every command emits: tool identity, input digest, payload, status."""

    command: str
    input_digest: str
    result: dict
    exit_status: int = EXIT_OK

    def to_json(self) -> dict:
        return {
            "tool": {"name": "netsheaf", "version": __version__},
            "command": self.command,
            "input_digest": self.input_digest,
            "result": self.result,
            "exit_status": self.exit_status,
        }


def _digest(path: Path) -> tuple[bytes, str]:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc}") from exc
    return raw, "sha256:" + hashlib.sha256(raw).hexdigest()


def _write_dot(path: str, obj) -> None:
    try:
        Path(path).write_text(dot_export(obj), encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write DOT file {path}: {exc}") from exc


def _load(path: Path, args=None) -> tuple[InputDocument, str]:
    raw, digest = _digest(path)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"input file {path} is not valid JSON: {exc}") from exc
    overrides = None
    if args is not None:
        overrides = {"max_bell": args.max_bell, "max_dim": args.max_dim}
    return parse_input_document(data, overrides), digest


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational: {text!r}") from exc


def _parse_weights(text: str) -> list[Fraction]:
    return [_parse_fraction(part.strip()) for part in text.split(",")]


# -- rendering -----------------------------------------------------------------

def _violation_rows(labels, rows) -> Rendered:
    """The covering-stability violations (`descent.stability_rows`) as the
    list of dicts "covered", "left_context", "right_context", "generated"
    that they name, given the labels of C_{A v B}, C_A and C_B
    (`DescentReport.labels`).  Each context's label is encoded once, and
    those of C_A and C_B once more with the JSON text that follows them in a
    row, so a row is one f-string of six pieces.  E and the generated
    context get no such piece: on grid 3x3 nearly every row has its own E,
    and a piece per E would hold a second copy of the rows' text."""
    joined, lefts, rights = (list(map(encode_basestring_ascii, side)) for side in labels)

    def render(depth: int, out: list) -> None:
        if not rows:
            out.append("[]")
            return
        member, field = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
        head, end = f',{member}{{{field}"covered": ', member + "}"
        mid = [f',{field}"left_context": {c},{field}"right_context": ' for c in lefts]
        tail = [f'{d},{field}"generated": ' for d in rights]
        first = len(out)
        out.extend([f"{head}{joined[e]}{mid[i]}{tail[j]}{joined[g]}{end}" for e, i, j, g in rows])
        out[first] = "[" + out[first][1:]
        out.append("\n" + "  " * depth + "]")

    return Rendered(render)


# Parts of the JSON text joined per write: few writes, and no second copy
# of the whole text.
_WRITE_BATCH = 4096


def _emit(envelope: ReportEnvelope, as_json: bool, lines: list[str]) -> int:
    try:
        _write(envelope, as_json, lines)
        sys.stdout.flush()
    except OSError as exc:
        # What is left in the buffer goes to the null device, so that the
        # flush at exit cannot fail again (Python's note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_INPUT
    return envelope.exit_status


def _write(envelope: ReportEnvelope, as_json: bool, lines: list[str]) -> None:
    if as_json:
        # Every part is built before the first is written, so a value that
        # cannot be encoded prints nothing.  The parts are written in joined
        # batches: an unbuffered stdout makes one system call per write.
        parts = json_parts(envelope.to_json())
        parts.append("\n")
        for k in range(0, len(parts), _WRITE_BATCH):
            sys.stdout.write("".join(parts[k:k + _WRITE_BATCH]))
    else:
        header = (
            f"netsheaf {__version__} | {envelope.command} | {envelope.input_digest}"
        )
        sys.stdout.write("\n".join([header] + lines) + "\n")


def _condition_lines(report) -> list[str]:
    lines = []
    for name in CONDITIONS:
        lines.append(f"  {name:<20} {_show(report.value(name))}")
        witness = report.witnesses.get(name)
        if witness:
            lines.append(f"      witness: {json.dumps(witness)}")
    return lines


def _show(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


# -- commands ------------------------------------------------------------------

def cmd_check_pair(args) -> int:
    doc, digest = _load(args.input, args)
    pair = doc.build_pair()
    report = hierarchy_report(pair, max_bell=doc.options.max_bell)
    result = {"pair": pair.describe(), "hierarchy": report.to_json()}
    status = EXIT_OK
    lines = [f"engine: {pair.engine}"]
    if pair.engine == "partition":
        lines += [
            f"left:  {pair.left}",
            f"right: {pair.right}",
            f"meet:  {pair.meet_algebra}",
        ]
    lines.append("")
    lines += _condition_lines(report)
    if args.require:
        required = args.require.replace("-", "_")
        value = report.value(required)
        result["require"] = {"condition": required, "value": value}
        if value is not True:
            status = EXIT_REQUIREMENT
            lines.append("")
            lines.append(f"required condition {required}: {_show(value).upper()}")
        else:
            lines.append("")
            lines.append(f"required condition {required}: satisfied")
    envelope = ReportEnvelope("check-pair", digest, result, status)
    return _emit(envelope, args.json, lines)


def cmd_descent(args) -> int:
    doc, digest = _load(args.input, args)
    pair = doc.build_pair()
    max_bell = doc.options.max_bell
    target = guard_descent(pair, max_bell=max_bell)
    report = sheaf_report(pair, max_bell=max_bell, target=target)
    _, violations = stability_rows(pair, max_bell=max_bell)
    result = {
        "descent": report.to_json(),
        "covering_stability": {
            "violations": _violation_rows(report.labels, violations),
            "count": len(violations),
        },
    } if args.json else {}
    if args.dot:
        _write_dot(args.dot, report.h)
        result["dot_written_to"] = str(args.dot)
    comps = report.ring_components or ()
    iso_count = sum(1 for rc in comps if rc.is_isomorphism)
    lines = [
        f"pair: {pair.left} | {pair.right}  (meet {pair.meet_algebra})",
        "",
        f"  h: {len(report.source)} contexts onto {len(set(report.h.table))} of "
        f"{len(report.target)} fibered pairs "
        f"(injective: {_show(report.h.is_injective())}, "
        f"surjective: {_show(report.h.is_surjective())})",
        f"  left adjoint exists:  {_show(report.adjunction.adjoint_exists)} "
        f"(equals the refinement join)",
        f"  coreflector:          {_show(report.adjunction.is_coreflector)}",
        f"  infinitesimal thickening: {_show(report.thickening.overall)}",
        f"  strong locality:      {_show(report.hierarchy.strong_locality)}",
        f"  unit law:             {_show(report.hierarchy.unit_law)}",
        f"  ring components:      {iso_count} of {len(comps)} are isomorphisms",
        f"  sheaf:                {_show(report.sheaf)} "
        f"(characterization agrees: {_show(report.sheaf == report.sheaf_by_characterization)})",
        f"  stability violations: {len(violations)}",
    ]
    if args.dot:
        lines.append(f"  DOT written to {args.dot}")
    envelope = ReportEnvelope("descent", digest, result)
    return _emit(envelope, args.json, lines)


def cmd_check_net(args) -> int:
    doc, digest = _load(args.input, args)
    if doc.net is None:
        raise InputError("input document has no net section")
    try:
        report = analyze_net(doc.net, max_bell=doc.options.max_bell)
    except NetValidationError as exc:
        validation = exc.validation
        lines = ["net validation FAILED:"]
        lines += [f"  [{v['kind']}] {v['regions']}: {v['detail']}" for v in validation.violations]
        envelope = ReportEnvelope(
            "check-net", digest, {"validation": validation.to_json()}, EXIT_REQUIREMENT
        )
        return _emit(envelope, args.json, lines)
    lines = ["net validation: ok", ""]
    for p in report.pairs:
        lines.append(
            f"  {p.regions[0]} >< {p.regions[1]}  (meet region {p.meet_region}, "
            f"meet algebra {p.meet_algebra}"
            + (f", intersection {p.intersection}" if p.meet_differs else "")
            + ")"
        )
        lines.append(
            f"    microcausality {_show(p.hierarchy.microcausality)}, "
            f"extended locality {_show(p.hierarchy.extended_locality)}, "
            f"C*-independent {_show(p.hierarchy.cstar_independent)}, "
            f"product sense {_show(p.hierarchy.product_sense)}"
        )
        lines.append(
            f"    strongly local {_show(p.descent.adjunction.is_coreflector)}, "
            f"unit law {_show(p.hierarchy.unit_law)}, sheaf {_show(p.descent.sheaf)}"
        )
    lines.append("")
    lines.append(
        f"summary: strongly-local net {_show(report.strongly_local_net)}, "
        f"C*-independent net {_show(report.cstar_independent_net)}, "
        f"sheaf net {_show(report.sheaf_net)}"
    )
    envelope = ReportEnvelope("check-net", digest, report.to_json() if args.json else {})
    return _emit(envelope, args.json, lines)


def cmd_valuations(args) -> int:
    doc, digest = _load(args.input, args)
    pair = doc.build_pair()
    pair.require_partition_engine("the valuations command")
    c = doc.partition(args.context1) if args.context1 else pair.left
    d = doc.partition(args.context2) if args.context2 else pair.right
    if not is_coarser(c, pair.left):
        raise InputError(f"{c} is not a context of the left algebra")
    if not is_coarser(d, pair.right):
        raise InputError(f"{d} is not a context of the right algebra")
    spec_c, spec_d = Spectrum(c), Spectrum(d)
    mu1 = (
        Valuation(spec_c, _parse_weights(args.mu1))
        if args.mu1
        else Valuation.uniform(spec_c)
    )
    mu2 = (
        Valuation(spec_d, _parse_weights(args.mu2))
        if args.mu2
        else Valuation.uniform(spec_d)
    )
    extension = product_extension(mu1, mu2, pair)
    seed = args.seed if args.seed is not None else doc.options.seed
    independent = valuation_independence_test(
        pair,
        seed=seed,
        samples=doc.options.samples,
        max_denominator=doc.options.max_denominator,
        max_bell=doc.options.max_bell,
    )
    result = {
        "pair": pair.describe(),
        "context_left": str(c),
        "context_right": str(d),
        "mu1": mu1.to_json(),
        "mu2": mu2.to_json(),
        "product_extension": {
            "exists": extension.exists,
            "valuation": extension.valuation.to_json() if extension.exists else None,
            "witness": list(extension.witness) if extension.witness else None,
            "witness_mass": None
            if extension.witness_mass is None
            else [extension.witness_mass.numerator, extension.witness_mass.denominator],
        },
        "valuation_independence": independent,
    }
    lines = [
        f"contexts: C = {c}, D = {d}",
        f"mu1: {json.dumps(mu1.to_json())}",
        f"mu2: {json.dumps(mu2.to_json())}",
    ]
    if extension.exists:
        lines.append(f"product extension: {json.dumps(extension.valuation.to_json())}")
    else:
        lines.append(
            f"no product extension; witness blocks {extension.witness[0]}, "
            f"{extension.witness[1]} with mass {extension.witness_mass}"
        )
    lines.append(f"valuation independence test: {_show(independent)}")
    envelope = ReportEnvelope("valuations", digest, result)
    return _emit(envelope, args.json, lines)


def cmd_contexts(args) -> int:
    doc, digest = _load(args.input, args)
    if args.algebra:
        name = args.algebra
    elif len(doc.algebras) == 1:
        name = next(iter(doc.algebras))
    else:
        raise InputError(
            "several algebras are defined; pick one with --algebra "
            f"(defined: {sorted(doc.algebras)})"
        )
    algebra = doc.partition(name)
    guard_contexts(doc.options.max_bell, algebra)
    poset = Contexts(algebra)
    labels = list(poset.labels())
    result = {
        "algebra": name,
        "partition": str(algebra),
        "count": len(labels),
        "bell": bell_number(algebra.num_blocks),
        "contexts": labels,
        "hasse_edges": hasse_edges(algebra.num_blocks),
    }
    if args.dot:
        _write_dot(args.dot, poset)
        result["dot_written_to"] = str(args.dot)
    lines = [
        f"algebra {name} = {algebra}",
        f"contexts: {len(poset)} (Bell({algebra.num_blocks}))",
        f"hasse edges: {result['hasse_edges']}",
    ] + [f"  {label}" for label in labels]
    if args.dot:
        lines.append(f"DOT written to {args.dot}")
    envelope = ReportEnvelope("contexts", digest, result)
    return _emit(envelope, args.json, lines)


# -- entry point ---------------------------------------------------------------

# The arguments every command takes, and each command's help line, handler
# and the options it adds to them, all as (name or flag, add_argument
# keywords).  `_read_argv` and `_build_parser` both read these tables.
_COMMON = [
    ("input", {"type": Path, "help": "JSON input document"}),
    ("--json", {"action": "store_true", "default": False, "help": "emit the JSON envelope"}),
    ("--max-bell", {"type": int, "default": None, "help": "context poset size guard"}),
    ("--max-dim", {"type": int, "default": None, "help": "matrix dimension guard"}),
]
_COMMANDS = {
    "check-pair": ("run the independence hierarchy on the pair", cmd_check_pair, [
        ("--require", {"metavar": "CONDITION",
                       "help": "exit 2 unless this condition holds (e.g. unit-law, schlieder)"}),
    ]),
    "descent": ("descent map, sheaf condition, stability axiom", cmd_descent, [
        ("--dot", {"metavar": "PATH", "help": "write the descent map as a DOT diagram"}),
    ]),
    "check-net": ("validate and analyze the net section", cmd_check_net, []),
    "valuations": ("product valuations and the independence test", cmd_valuations, [
        ("--mu1", {"help": "weights on the left context, e.g. '1/2,1/2'"}),
        ("--mu2", {"help": "weights on the right context"}),
        ("--context1", {"help": "name of a context of the left algebra"}),
        ("--context2", {"help": "name of a context of the right algebra"}),
        ("--seed", {"type": int, "help": "valuation sampling seed"}),
    ]),
    "contexts": ("enumerate the context poset of an algebra", cmd_contexts, [
        ("--algebra", {"help": "name of the algebra to enumerate"}),
        ("--dot", {"metavar": "PATH", "help": "write the Hasse diagram as DOT"}),
    ]),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that `_build_parser(argv[0]).parse_args(argv)` gives,
    read straight off the tables, or None unless argv has the one form read
    here: a command, one input that does not start with "-", and that
    command's flags spelled out in full, each at most once, a valued one
    followed by a value that does not start with "-" and that its type
    accepts.  Every other argv (help, version, an abbreviation, --opt=value,
    "--", a repeat, a stray positional, a bad value) is left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    (name, positional), *common = _COMMON
    flags = dict(common + options)
    values = {flag: keywords.get("default") for flag, keywords in flags.items()}
    inputs, rest = [], iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            inputs.append(arg)
            continue
        # popped, so that a repeated flag is declined
        keywords = flags.pop(arg, None)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            values[arg] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        try:
            values[arg] = keywords.get("type", str)(value)
        except ValueError:
            return None
    if len(inputs) != 1:
        return None
    values[name] = positional["type"](inputs[0])
    return SimpleNamespace(command=argv[0], func=func,
                           **{key.lstrip("-").replace("-", "_"): v for key, v in values.items()})


def _build_parser(command: str | None = None):
    """The argument parser with every command's subparser, or with only
    `command`'s.  It is built only for an argv that `_read_argv` declines,
    and only then is argparse imported.  A run with one command builds only
    its subparser; --help, a missing or an unknown command get the whole
    tree.  With one subparser the choices are spelled out as its metavar, so
    the top-level usage line of an unrecognised option reads as it does with
    all five."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="netsheaf",
        description=(
            "Decide independence and sheaf conditions for finite nets of "
            "operator algebras, exactly."
        ),
    )
    parser.add_argument("--version", action="version", version=f"netsheaf {__version__}")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # argparse names the subparsers by their metavar in the errors that only
    # a missing or unknown command raises, so it is set only for one command
    metavar = "{%s}" % ",".join(_COMMANDS) if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, func, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in _COMMON + options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    return _dispatch(args)


def _dispatch(args) -> int:
    try:
        return args.func(args)
    except (InputError, SizeGuardError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        sys.stderr.write(json.dumps(exc.dump, indent=2, default=str) + "\n")
        return EXIT_INTERNAL
    except NetsheafError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def run():  # console entry point helper for `python -m netsheaf.cli`
    sys.exit(main())


if __name__ == "__main__":
    run()
