"""Print every end-to-end and per-layer metric of every workload.

Usage: python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py on each workload untraced (end-to-end metrics) and traced
(per-layer metrics, trace.overhead_s and layer shares), shows each run's
own report, then one table with a column per workload.  --seconds
defaults to run_seconds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    table, units, ok = {}, {}, True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            try:
                stdout, result = run.invoke(workload, args.seed, args.seconds, trace)
            except run.BenchError as exc:
                print(exc, file=sys.stderr)
                return 1
            print(stdout)
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                table.setdefault(name, {})[workload] = metric["value"]
                units[name] = metric["unit"]

    print(f"{'metric':48s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in workloads.WORKLOADS))
    for name, values in table.items():
        cells = " ".join(f"{values.get(w, float('nan')):12.6g}" for w in workloads.WORKLOADS)
        print(f"{name:48s} {units[name]:6s} {cells}")
    print("all verdicts correct" if ok else "SOME VERDICTS WRONG")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
