"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage: python3 perfbench/spread.py [--workloads W ...] [--seeds N]
                                   [--first-seed K] [--seconds S]

Runs run.py untraced once per seed and workload, then prints for each
end-to-end metric its median over the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of that
median, next to a third of the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run
import workloads


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            try:
                _, result = run.invoke(workload, seed, args.seconds, 0)
            except run.BenchError as exc:
                print(exc, file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                steady = False
            line = []
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                line.append(f"{name} {values[name][-1]:.4f}")
            print(f"{workload} seed {seed}: " + "  ".join(line), flush=True)
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            med = statistics.median(values[name])
            share = (q3 - q1) / med
            ok = share < bound / 3 or name == "setup_s"
            steady = steady and ok
            print(f"  {workload:12s} {name:12s} median {med:.4f}  IQR/median {share:.4f}"
                  f"  bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
