"""Run one netsheaf CLI command in this fresh process and report its timing.

Usage: python case.py SPEC_JSON

SPEC_JSON holds ``root`` (the checkout whose ``src`` is imported), ``argv``
(the CLI arguments), ``result`` (where this process writes its timing) and
``trace`` (whether to record spans).  The command's stdout goes wherever the
parent pointed this process's stdout.  All timestamps are CLOCK_MONOTONIC,
which the parent shares, so the parent can time interpreter start-up from
before it spawned this process.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import netsheaf.cli

    t_imported = now()
    package_dir = os.path.dirname(os.path.abspath(netsheaf.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        sys.stderr.write(f"netsheaf was imported from {package_dir}, not from {src}\n")
        return 90
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.install()
    cpu_begin = time.process_time()
    t_begin = now()
    status = netsheaf.cli.main(spec["argv"])
    sys.stdout.flush()
    t_end = now()
    cpu_s = time.process_time() - cpu_begin
    report = {
        "status": status,
        "t_start": T_START,
        "t_imported": t_imported,
        "t_begin": t_begin,
        "t_end": t_end,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        report["trace"] = recorder.summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
