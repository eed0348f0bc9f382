"""One repetition of a workload in a fresh interpreter.

Usage: child.py ROOT setup
       child.py ROOT run SPEC_JSON

``setup`` imports qdissect from ROOT/src, builds the identity catalog and
prints the monotonic time at which it was ready.  ``run`` does the same,
checks that no cache of the program holds anything, runs the instances of
SPEC in one timed region while sampling the host's speed
(calibrate.py), and prints one JSON object with the measurements and the
check records of the verdict gate, which is computed after the timed
region.

Modules other than qdissect are imported only after the ready time, so
that setup_s covers interpreter start, ``import qdissect`` and catalog
construction alone.
"""

import os
import sys
import time


def _load(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qdissect
    from qdissect import theta

    theta.catalog()
    ready = time.monotonic()
    here = os.path.realpath(qdissect.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qdissect was imported from {here}, not from {src}")
    return ready


def warm_caches() -> list:
    """Names of program caches that already hold entries.

    Covers every ``functools`` cache of the package (``theta.build``,
    ``combinatorics.enumerate_class``, ...) and every module-level dict
    named ``*_CACHE`` (``products._POCH_CACHE``).
    """
    warm = []
    for modname, module in sorted(sys.modules.items()):
        if not modname.startswith("qdissect"):
            continue
        for name, obj in vars(module).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{modname}.{name}")
            elif name.endswith("_CACHE") and isinstance(obj, dict) and obj:
                warm.append(f"{modname}.{name}")
    return warm


def _run_instance(inst, path, cli_main):
    """Run one instance; CLI output goes to ``path`` as it would to a file."""
    import contextlib

    from qdissect import verification

    outcome = {"exit": None, "report": None, "error": None}
    try:
        if inst["kind"] == "cli":
            with open(path, "w") as handle, contextlib.redirect_stdout(handle):
                try:
                    outcome["exit"] = cli_main(inst["args"])
                except SystemExit as exc:
                    outcome["exit"] = exc.code
        elif inst["kind"] == "oracle":
            outcome["report"] = verification.check_oracle_agreement(*inst["params"])
        else:
            spec = verification.EquidistributionSpec(*inst["params"])
            outcome["report"] = verification.check_equidistribution(spec)
    except Exception as exc:  # counted as a failed check by the gate
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    return outcome


def _parse(outcome, path):
    import json

    if outcome["report"] is not None:
        return outcome["report"].to_dict()
    if outcome["error"] is not None:
        return None
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        outcome["error"] = f"unreadable output: {exc}"
        return None


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    import resource

    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run(spec):
    import json
    import resource

    import calibrate
    import tracing
    import workloads
    from qdissect import cli, combinatorics, theta

    out_dir = spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    warm = warm_caches()
    sampler = calibrate.Sampler()
    tracer = None
    cli_main = cli.main
    if spec["trace"]:
        tracer = tracing.Tracer(clock=sampler.clock)
        tracer.install()
        cli_main = tracer.span("cli", cli.main)

    paths = [os.path.join(out_dir, f"output-{i}.json")
             for i in range(len(spec["instances"]))]
    with sampler:
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        outcomes = [_run_instance(inst, path, cli_main)
                    for inst, path in zip(spec["instances"], paths)]
        t1 = time.perf_counter()
        c1 = _cpu_seconds()
    wall, cpu = t1 - t0, c1 - c0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    probes = sampler.between(t0, t1)
    if not probes:
        raise SystemExit("no speed probe ran in the timed region")
    result = {
        "wall_s": wall - sum(p[1] for p in probes),
        "cpu_s": cpu - sum(p[2] for p in probes),
        "probes": len(probes),
        "probe_wall_s": sum(p[1] for p in probes) / len(probes),
        "probe_cpu_s": sum(p[2] for p in probes) / len(probes),
        "peak_rss_mb": peak_kb / 1024.0,
        "warm_caches": warm,
    }
    if tracer is not None:
        tracer.uninstall()
        info = getattr(combinatorics.enumerate_class, "cache_info", None)
        if info is not None:
            tracer.counts["combinatorics.enumerate_class.misses"] = info().misses
        result["counts"] = dict(tracer.counts)
        result["self_s"] = dict(tracer.self_times())
        result["covered_s"] = tracer.covered()
        span_counts = {}
        for span in tracer.spans:
            span_counts[span[2]] = span_counts.get(span[2], 0) + 1
        result["span_counts"] = span_counts
        with open(os.path.join(out_dir, spec["spans_name"]), "w") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, handle)

    checks = []
    for inst, outcome, path in zip(spec["instances"], outcomes, paths):
        outcome["output"] = _parse(outcome, path)
        try:
            checks.extend(workloads.verdicts(inst, outcome, build=theta.build))
        except Exception as exc:
            # output of an unexpected shape, or a failing spot-check read:
            # a failed check, not a failed benchmark
            checks.append((inst["key"], None, False, f"{type(exc).__name__}: {exc}"))
    result["checks"] = checks
    return result


def main():
    import json

    root, mode = sys.argv[1], sys.argv[2]
    ready = _load(root)
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return
    result = run(json.loads(sys.argv[3]))
    result["ready"] = ready
    print(json.dumps(result))


if __name__ == "__main__":
    main()
