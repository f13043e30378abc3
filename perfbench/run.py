"""Cold-process benchmark of the netsheaf CLI.

    python3 perfbench/run.py --workload join-lattice --seed 1 --seconds 40 --trace 0

Runs the workload's cases (see workloads.py) in whole rounds, one fresh
Python process per command and never two at once, until another round
would overrun ``--seconds``.  Each case process times
``netsheaf.cli.main([..., "--json"])`` itself, so interpreter start and
``import netsheaf`` land in ``setup_s`` and not in the command time.  Every
envelope is checked by oracle.py, which never calls netsheaf.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced process per case and prints the per-layer metrics
(spans.py).  The last line of stdout is the JSON result; per-case samples
and traces go to ``.perfbench/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
from workloads import WORKLOADS, Case, cases_for, write_documents

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
CASE = Path(__file__).resolve().parent / "case.py"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
CASE_TIMEOUT_S = 60


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_case(case: Case, document: Path, seed: int, traced: bool, work: Path) -> dict:
    """One fresh process running one command; returns its timing record."""
    result_path = work / "result.json"
    stdout_path = work / "stdout.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "root": str(ROOT),
        "argv": case.argv(document, seed),
        "result": str(result_path),
        "trace": traced,
    }
    with open(stdout_path, "wb") as stdout:
        t_spawn = now()
        proc = subprocess.Popen(
            [sys.executable, str(CASE), json.dumps(spec)], stdout=stdout, cwd=work
        )
        try:
            code = proc.wait(timeout=CASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        return {"error": f"timed out after {CASE_TIMEOUT_S} s"}
    if code != 0 or not result_path.exists():
        return {"error": f"case process exited with {code}"}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["setup_s"] = record["t_imported"] - t_spawn
    record["cmd_s"] = record["t_end"] - record["t_begin"]
    record["stdout"] = stdout_path.read_text(encoding="utf-8")
    return record


class Checker:
    """Oracle expectations, computed once per case, applied to every run."""

    def __init__(self, documents: dict[str, Path]):
        self.documents = documents
        self.expected: dict[str, dict] = {}

    def mismatches(self, case: Case, record: dict) -> list[str]:
        if "error" in record:
            return [record["error"]]
        if case.name not in self.expected:
            self.expected[case.name] = oracle.expectations(case)
        raw = self.documents[case.name].read_bytes()
        return oracle.check(case, record["stdout"], record["status"], raw,
                            self.expected[case.name])


def is_known_fault(case: Case, mismatches: list[str]) -> bool:
    return case.expect_failure and set(mismatches) <= set(oracle.KNOWN_FAULT)


def layer_metrics(cases: list[Case], traced: dict[str, list[dict]]) -> tuple[dict, float, dict]:
    """Per-layer metrics from each case's median traced process."""
    raw = {}
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    selfs: dict[str, float] = {}
    missing: set[str] = set()
    verdict = 0.0
    for case in cases:
        rec = _median_record(traced[case.name])
        verdict += rec["cmd_s"]
        t = rec["trace"]
        raw[case.name] = t.pop("raw")
        missing.update(t["missing"])
        for key, table in (("totals", totals), ("calls", calls), ("counts", counts),
                           ("self", selfs)):
            for name, value in t[key].items():
                table[name] = table.get(name, 0) + value
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for _, _, name in spans.SPANNED:
        if name not in spans.UNREPORTED and name not in missing:
            put(f"{name}_s", totals.get(name, 0.0), "s")
    for name, count_name in spans.CALL_COUNTED.items():
        if name not in missing:
            put(count_name, calls.get(name, 0), "count")
    for name, value in sorted(counts.items()):
        put(name, value, "count")
    for layer, value in selfs.items():
        put(f"{layer}.self_s", value, "s")
    return metrics, verdict, raw


def _median_record(records: list[dict]) -> dict:
    """The record with the lower-median command time."""
    ordered = sorted(records, key=lambda r: r["cmd_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced_run = bool(args.trace)

    if not (ROOT / "src" / "netsheaf" / "cli.py").is_file():
        sys.stderr.write(f"no netsheaf sources under {ROOT / 'src'}; nothing to measure\n")
        return 2

    cases = cases_for(args.workload)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        documents = write_documents(cases, work / "documents")
        checker = Checker(documents)
        untraced = {case.name: [] for case in cases}
        traced = {case.name: [] for case in cases}
        attempted = failed = 0
        unexpected: list[str] = []
        started = now()
        rounds = 0
        while True:
            round_start = now()
            for case in cases:
                for trace in (False, True) if traced_run else (False,):
                    record = run_case(case, documents[case.name], args.seed, trace, work)
                    attempted += 1
                    bad = checker.mismatches(case, record)
                    if bad:
                        failed += 1
                        if not is_known_fault(case, bad):
                            unexpected.append(f"{case.name}: " + "; ".join(bad[:5]))
                    if "error" not in record:
                        del record["stdout"]
                        (traced if trace else untraced)[case.name].append(record)
            rounds += 1
            elapsed = now() - started
            if unexpected or (
                rounds >= (MIN_TRACED_ROUNDS if traced_run else MIN_ROUNDS) and elapsed + (now() - round_start) > args.seconds
            ):
                break
        for line in unexpected:
            sys.stderr.write(f"wrong output: {line}\n")
        correct = not unexpected and all(untraced.values())
        if traced_run:
            correct = correct and all(traced.values())
        if not correct:
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 1

        medians = {name: statistics.median(r["cmd_s"] for r in recs)
                   for name, recs in untraced.items()}
        processes = [r for recs in untraced.values() for r in recs]
        verdict_s = sum(medians.values())
        metrics = {
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "cmd_s.p50": {"value": statistics.median(medians.values()), "unit": "s"},
            "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in processes) / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in processes),
                        "unit": "s"},
        }
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "rounds": rounds, "wall_s": now() - started, "python": sys.version,
            "cpus": os.cpu_count(), "case_medians_s": medians,
            "samples": {name: [r["cmd_s"] for r in recs] for name, recs in untraced.items()},
            "cpu_samples": {name: [r["cpu_s"] for r in recs] for name, recs in untraced.items()},
            "end_to_end": metrics,
        }
        if traced_run:
            layers, traced_verdict, raw = layer_metrics(cases, traced)
            layers["trace.overhead_s"] = {"value": traced_verdict - verdict_s, "unit": "s"}
            # The layers' self times add up to the traced command time by
            # construction (`cli.main` is the root span); both go to the
            # result file so the README's statement can be checked.
            detail["traced_verdict_s"] = traced_verdict
            detail["self_time_sum_s"] = sum(
                v["value"] for k, v in layers.items() if k.endswith(".self_s"))
            detail["per_layer"] = layers
            metrics = layers
            _write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                   {"workload": args.workload, "seed": args.seed, "spans": raw})
        _write(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", detail)
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
