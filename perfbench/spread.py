"""Run-to-run spread of the end-to-end metrics, in two alternated sets.

    python3 perfbench/spread.py --runs 10

Runs run.py ``--runs`` times per set for every workload of BENCHMARK.json,
alternating the two sets run by run (set A seed s, set B seed s + 1000,
then the next seed), one run at a time.  For each workload and metric it prints each set's
median and inter-quartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), the shift of set B's
median against set A's, the failed share of each set, and the bound from
BENCHMARK.json.  The raw results go to ``.perfbench/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            for label, seed in (("A", i + 1), ("B", i + 1001)):
                results[workload][label].append(one_run(workload, seed, bench["run_seconds"]))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "spread.json").write_text(json.dumps(results, indent=1))
    for workload in workloads:
        print(f"{workload}:")
        for label in ("A", "B"):
            runs = results[workload][label]
            share = {r["failed"] / r["attempted"] for r in runs}
            print(f"  set {label} failed share(s): {sorted(share)}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in results[workload]["A"]]
            b = [r["metrics"][name]["value"] for r in results[workload]["B"]]
            (ma, sa), (mb, sb) = spread(a), spread(b)
            print(f"  {name:12s} A {ma:10.4f} iqr {sa:6.1%}   B {mb:10.4f} iqr {sb:6.1%}"
                  f"   B/A-1 {mb / ma - 1:+6.1%}   bound {metric['bound']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
