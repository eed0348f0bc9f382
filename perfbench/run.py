"""qdissect benchmark: cold-process workloads with a verdict gate.

Usage:
    python3 perfbench/run.py --workload {suite,sweep-deep,statistics}
        --seed N --seconds S --trace {0,1}

Every repetition runs in a fresh interpreter (child.py), because every CLI
user pays for the program's caches again on each invocation.  Repetitions
are started while the next one is predicted to end within S seconds.

Every end-to-end metric is the median over the repetitions of a run.
``wall_s`` and ``cpu_s`` are scaled to a reference host speed: while a
repetition runs, a small fixed probe is timed every 50 ms in
its own thread (calibrate.py); the probes' time is taken out and the
rest multiplied by ``calibrate.REFERENCE_S`` over the probe's mean time.
On a shared two-core host the same repetition runs up to 2x slower from
one moment to the next, CPU time with it, and the level drifts over
minutes; the unscaled medians are printed and recorded next to the
scaled ones.  ``setup_s`` is the median over setup-only interpreters
started before each repetition and the repetitions' own start-up, scaled
by the run's median probe time; ``peak_rss_mb`` the median over the
repetitions.

With --trace 1 repetitions alternate traced and untraced (at least two
traced, one untraced).  Per-layer metrics are medians over the traced
ones (spans exclude probe time and are not scaled);
``trace.overhead_s`` is the median scaled wall time of the traced
repetitions minus that of the untraced ones.

Human-readable lines come first; the last line of standard output is the
JSON result.  Raw samples, provenance and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT = 150
SETUP_SAMPLES = 3  # setup-only interpreters before each repetition

# end-to-end metric -> unit; each is the median over the samples of a run
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# spans whose self time is a per-layer metric "<span>.self_s"
SELF_SPANS = (
    "series.mul", "series.inverse", "series.pochhammer",
    "products.expand_univariate", "products.expand_bivariate",
    "bivariate.residue_buckets", "theta.evaluate", "theta.verify_entry",
    "combinatorics.statistic_distribution", "combinatorics.enumerate_vectors",
    "verification.identity", "verification.congruence",
    "verification.equidistribution", "verification.relation",
    "verification.oracle", "cli",
)
# counters reported as they are (unit "count" unless named here)
COUNTS = (
    "series.mul.calls", "series.mul.packed_bytes", "series.inverse.calls",
    "series.inverse.coeffs", "series.pochhammer.calls", "series.pochhammer.coeffs",
    "products.expand_univariate.calls", "products.expand_bivariate.calls",
    "bivariate.terms", "theta.build.calls", "theta.build.misses",
    "theta.build.coeffs", "combinatorics.statistic_distribution.calls",
    "combinatorics.vectors", "combinatorics.enumerate_class.misses",
)
RATIOS = ("series.mul.schoolbook_share", "theta.build.hit_ratio",
          "verification.coeffs_read_per_built")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition, by name."""
    counts, self_s, wall = rep["counts"], rep["self_s"], rep["wall_s"]
    out = {span + ".self_s": float(self_s.get(span, 0.0)) for span in SELF_SPANS}
    out.update({name: counts.get(name, 0) for name in COUNTS})
    out["series.mul.schoolbook_share"] = _ratio(
        counts.get("series.mul.schoolbook_calls", 0), counts.get("series.mul.calls", 0))
    calls = counts.get("theta.build.calls", 0)
    out["theta.build.hit_ratio"] = _ratio(calls - counts.get("theta.build.misses", 0), calls)
    out["verification.coeffs_read_per_built"] = _ratio(
        counts.get("verification.coeffs_read", 0), counts.get("verification.coeffs_built", 0))
    out["trace.wall_s"] = wall
    out["trace.spans"] = sum(rep["span_counts"].values())
    for layer in tracing.LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"share.{layer}"] = layer_self / wall
    out["share.outside"] = (wall - rep["covered_s"]) / wall
    return out


def per_layer_units() -> dict:
    units = {span + ".self_s": "s" for span in SELF_SPANS}
    units.update({name: "count" for name in COUNTS})
    units["series.mul.packed_bytes"] = "bytes"
    units.update({name: "ratio" for name in RATIOS})
    units.update({"trace.overhead_s": "s", "trace.wall_s": "s", "trace.spans": "count"})
    units.update({f"share.{layer}": "ratio" for layer in tracing.LAYERS})
    units["share.outside"] = "ratio"
    return units


def _scaled(rep: dict, name: str) -> float:
    """``wall_s`` or ``cpu_s`` of a repetition at the reference host speed."""
    probe = rep["probe_wall_s"] if name == "wall_s" else rep["probe_cpu_s"]
    return rep[name] * calibrate.REFERENCE_S / probe


def _provenance(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src", "qdissect"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    src.update(handle.read())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def spawn(args: list) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), ROOT] + args,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - start
    return data


def invoke(workload: str, seed: int, seconds: int, trace: int):
    """Run this benchmark in a subprocess, as the command line does.

    Returns its standard output and the parsed JSON result.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=seconds + 300)
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _gate(checks: list, insts: list, committed: dict) -> list:
    """Failed check records of one repetition, digests included."""
    failed = []
    seen = set()
    for key, dig, ok, note in checks:
        if dig is not None:
            seen.add(key)
            want = committed.get(key)
            if want != dig:
                ok, note = False, f"{note}; digest {dig[:12]} != committed {str(want)[:12]}"
        if not ok:
            failed.append((key, note))
    for inst in insts:
        for key in committed:
            if (key == inst["key"] or key.startswith(inst["key"] + "/")) and key not in seen:
                failed.append((key, "no output for this check"))
    return failed


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "qdissect", "__init__.py")):
        raise BenchError(f"no qdissect sources under {ROOT}/src")
    with open(os.path.join(HERE, "digests.json")) as handle:
        committed = json.load(handle)
    insts = workloads.instances(workload, seed)
    out_dir = os.path.join(OUT, workload)
    deadline = time.monotonic() + seconds

    setups, reps, attempted, failures = [], [], 0, []
    cycle = 0.0
    while True:
        traced_count = sum(1 for r in reps if r["traced"])
        if trace:
            need = traced_count < 2 or len(reps) - traced_count < 1
            traced = len(reps) % 2 == 0
        else:
            need, traced = not reps, False
        cycle_start = time.monotonic()
        if not need and cycle_start + cycle > deadline:
            break
        if not trace:
            setups.extend(spawn(["setup"])["setup_s"] for _ in range(SETUP_SAMPLES))
        spec = {"instances": insts, "trace": traced, "out_dir": out_dir}
        if traced:
            spec["spans_name"] = f"spans-rep{len(reps)}.json"
        rep = spawn(["run", json.dumps(spec)])
        rep["traced"] = traced
        reps.append(rep)
        failed = _gate(rep["checks"], insts, committed)
        attempted += len(rep["checks"]) + sum(
            1 for _, note in failed if note == "no output for this check")
        failures.extend(failed)
        cycle = time.monotonic() - cycle_start

    gate_errors = []
    for rep in reps:
        if rep["warm_caches"]:
            gate_errors.append(f"caches not empty before timing: {rep['warm_caches']}")
    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    metrics = {}
    samples = {}
    raw = {name: [r[name] for r in untraced] for name in ("wall_s", "cpu_s", "probe_wall_s")}
    if not trace:
        raw["setup_s"] = setups + [r["setup_s"] for r in reps]
        speed = calibrate.REFERENCE_S / statistics.median(raw["probe_wall_s"])
        samples = {
            "wall_s": [_scaled(r, "wall_s") for r in untraced],
            "cpu_s": [_scaled(r, "cpu_s") for r in untraced],
            "setup_s": [s * speed for s in raw["setup_s"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    else:
        first = traced_reps[0]["counts"]
        for rep in traced_reps[1:]:
            diff = sorted(k for k in first.keys() | rep["counts"].keys()
                          if rep["counts"].get(k) != first.get(k))
            if diff:
                gate_errors.append(f"exact counts differ between traced runs: {diff}")
        layer = [_layer_metrics(r) for r in traced_reps]
        for name, unit in per_layer_units().items():
            if name == "trace.overhead_s":
                value = (statistics.median(_scaled(r, "wall_s") for r in traced_reps)
                         - statistics.median(_scaled(r, "wall_s") for r in untraced))
            elif name in COUNTS or name == "trace.spans":
                value = layer[0][name]  # identical in every traced repetition
            else:
                value = statistics.median(m[name] for m in layer)
            metrics[name] = {"value": value, "unit": unit}
        claims = workloads.LAYER_CLAIMS[workload]
        spans = traced_reps[0]["span_counts"]
        for name in claims["bypasses"]:
            calls = sum(n for span, n in spans.items()
                        if span == name or span.startswith(name + "."))
            if calls:
                gate_errors.append(f"{name} should be bypassed but has {calls} spans")
        for name in claims["stresses"]:
            share = metrics[f"share.{name}"]["value"]
            if share < workloads.STRESS_SHARE:
                gate_errors.append(f"layer {name} should be stressed but holds "
                                   f"{share:.3f} of the traced wall time")

    result = {
        "correct": not failures and not gate_errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "provenance": _provenance(seed),
        "instances": [i["key"] for i in insts],
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps),
        "reference_s": calibrate.REFERENCE_S,
        "samples": samples,
        "raw_samples": raw,
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "traced_wall_s": [r["wall_s"] for r in traced_reps],
        "failures": failures,
        "gate_errors": gate_errors,
        "verdict_error_rate": _ratio(len(failures), attempted),
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(record, handle, indent=1)
    return record


def _print(record: dict):
    prov = record["provenance"]
    print(f"workload {record['workload']}  seed {prov['seed']}  trace {int(record['trace'])}"
          f"  repetitions {record['repetitions']}  python {prov['python']}"
          f"  nproc {prov['nproc']}  commit {prov['commit']}"
          f"  src {prov['src_sha256'][:16]}")
    print("instances: " + " | ".join(record["instances"]))
    for name, metric in record["result"]["metrics"].items():
        line = f"{name:48s} {metric['value']:.6g} {metric['unit']}"
        values = record["samples"].get(name)
        if values:
            q1, q3 = _quartiles(values)
            line += f"   (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g}"
            raw = record["raw_samples"].get(name)
            if raw:
                line += f"; unscaled median {statistics.median(raw):.6g}"
            line += ")"
        print(line)
    probe = record["raw_samples"]["probe_wall_s"]
    if probe:
        print(f"speed probe: median {statistics.median(probe) * 1e3:.4g} ms over"
              f" {len(probe)} repetitions, reference {record['reference_s'] * 1e3:.4g} ms")
    print(f"verdict_error_rate {record['verdict_error_rate']:.6g} "
          f"({record['result']['failed']} of {record['result']['attempted']} checks)")
    for key, note in record["failures"][:20]:
        print(f"FAILED {key}: {note}")
    for error in record["gate_errors"]:
        print(f"GATE {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _print(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
