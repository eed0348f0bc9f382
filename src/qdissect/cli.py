"""Command-line front end.

Thin adapters over the library: expand named series, verify identity
catalog entries, run the theorem suite, emit rank/crank tables, and
sweep custom congruence specs.  All output is machine-readable; big
integers serialize as decimal strings in JSON so 53-bit consumers
cannot truncate them.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
a suite or sweep run that checked nothing), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from typing import Optional

from . import combinatorics as comb
from . import theta
from . import verification

ENV_PRECISION = "QDISSECT_PRECISION"

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _positive_int(text: str) -> int:
    """Argument type of every precision and modulus: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _precision(args) -> int:
    """``--precision`` of suite and sweep, else ``QDISSECT_PRECISION``,
    which only those two commands read, else the suite's default."""
    if args.precision is not None:
        return args.precision
    value = os.environ.get(ENV_PRECISION)
    if value is None:
        return verification.DEFAULT_PRECISION
    try:
        return _positive_int(value)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"invalid {ENV_PRECISION}: {exc}")


def _json(obj) -> str:
    """Compact JSON on one line: one-shot ``json.dumps`` runs the C encoder."""
    return json.dumps(obj)


def _write(text: str, output: Optional[str]):
    """Write ``text``, ending in one newline, to stdout or to the file ``output``."""
    text += "" if text.endswith("\n") else "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from None


_SERIES_ALIASES = {"w_t": "w", "c_t": "c", "phi-neg": "phi_neg", "f_k": "f"}
_SERIES_HELP = "one of: " + ", ".join(
    sorted(set(theta.SERIES_NAMES) | set(_SERIES_ALIASES)))


def _series(args) -> tuple:
    """The series name, aliases resolved, and its parameter: --k for f,
    --t for w and c.  theta.series_spec rejects an unknown name and a
    parameter that the series does not take."""
    name = _SERIES_ALIASES.get(args.series, args.series)
    flag, other = ("k", "t") if name == "f" else ("t", "k")
    if getattr(args, other) is not None:
        raise ValueError(f"series {name!r} takes no --{other}")
    param = getattr(args, flag)
    if param is None and name in ("f", "w", "c"):
        raise ValueError(f"series {name!r} requires --{flag}")
    theta.series_spec(name, param)
    return name, param


def cmd_expand(args) -> int:
    name, param = _series(args)
    series = theta.build(name, args.precision, param)
    if args.format == "json":
        payload = {
            "series": name,
            "parameter": param,
            "precision": args.precision,
            "coefficients": series.to_decimal_strings(),
        }
        _write(_json(payload), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "coefficient"])
        for n, c in enumerate(series.coeffs):
            writer.writerow([n, c])
        _write(buf.getvalue(), args.output)
    else:
        lines = [f"{n}: {c}" for n, c in enumerate(series.coeffs)]
        _write("\n".join(lines), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.list:
        _write(_json(theta.catalog_summaries()), args.output)
        return EXIT_OK
    entries = theta.catalog()
    if args.id:
        entries = [theta.catalog_entry(args.id)]
    theta.build_longest(r for e in entries for r in theta.entry_requests(e, args.precision))
    reports = [theta.verify_entry(entry, args.precision) for entry in entries]
    failed = any(report.status != "pass" for report in reports)
    rows = [{
        "id": report.id,
        "status": report.status,
        "precision": report.precision,
        "mismatch_index": report.mismatch_index,
        "millis": round(report.millis, 3),
    } for report in reports]
    if args.format == "json":
        _write(_json(rows), args.output)
    else:
        _write("\n".join(f"{r['id']}: {r['status']} (N={r['precision']})" for r in rows),
               args.output)
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


def cmd_suite(args) -> int:
    precision = _precision(args)
    reports = verification.run_suite(precision, name_filter=args.filter)
    payload = [r.to_dict() for r in reports]
    if args.format == "plain":
        lines = [f"{r.id}: {r.status}" for r in reports]
        _write("\n".join(lines), args.output)
    else:
        _write(_json(payload), args.output)
    return _exit_code(reports, precision)


def _exit_code(reports: list, precision: int) -> int:
    """1 if a report failed, else 2 if none passed (all skipped), else 0."""
    if verification.suite_failed(reports):
        return EXIT_VERIFICATION_FAILED
    if not any(r.status == "pass" for r in reports):
        needed = max(r.needed for r in reports)
        print(f"error: nothing was checked at precision {precision}; "
              f"precision {needed} runs every skipped check", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# one row of a table's "vectors": labels are brackets, digits, commas and
# stars, which JSON writes as they are
_JSON_ROW = '{"components": "%s", "weight": %d, "statistic": %d}'


def cmd_table(args) -> int:
    """``ranktable``, and ``cranktable``, whose parser fixes the family W2."""
    family, t = args.family, comb.family_t(args.family, args.t)
    rows = comb.vector_rows(family, t, args.n, allow_large=args.allow_large)
    dist = comb.statistic_distribution(family, t, args.n, allow_large=args.allow_large)
    summary = comb.residue_classes(dist, args.modulus)
    total = sum(dist.values())
    if args.format == "json":
        # the payload of json.dumps, with the rows spliced in as text
        head = _json({"family": family, "t": t, "n": args.n})
        foot = _json({"residue_classes": {str(k): str(c) for k, c in enumerate(summary)},
                      "total": str(total)})
        vectors = ", ".join(map(_JSON_ROW.__mod__, rows))
        _write(f'{head[:-1]}, "vectors": [{vectors}], {foot[1:]}', args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family", "t", "n", "components", "weight", "statistic"])
        writer.writerows([(family, t, args.n, *row) for row in rows])
        writer.writerow([])
        writer.writerow(["residue", "weighted_count"])
        for k, c in enumerate(summary):
            writer.writerow([k, c])
        writer.writerow(["total", total])
        _write(buf.getvalue(), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    name, param = _series(args)
    spec = verification.CongruenceSpec(
        "sweep", name, param, args.a, args.b, args.mod, args.nmax,
    )
    precision = _precision(args)
    report = verification.check_congruence(spec, precision)
    _write(_json(report.to_dict()), args.output)
    return _exit_code([report], precision)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdissect",
        description="Exact q-series and colored-partition congruence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a named series")
    p.add_argument("--series", required=True, help=_SERIES_HELP)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--precision", type=_positive_int, default=32)
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.add_argument("--output", default=None, help="file path or '-' for stdout")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="check identity catalog entries")
    p.add_argument("--list", action="store_true", help="list entries as JSON")
    p.add_argument("--id", default=None)
    p.add_argument("--precision", type=_positive_int, default=None)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run the full theorem suite")
    p.add_argument("--filter", default=None, help="substring filter on item ids")
    p.add_argument("--precision", type=_positive_int, default=None)
    p.add_argument("--format", choices=("plain", "json"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("ranktable", help="enumerate V_t (or W2) with statistics")
    p.add_argument("--family", choices=("V", "W2"), default="V")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modulus", type=_positive_int, default=5)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cranktable", help="enumerate W2 with the vector crank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modulus", type=_positive_int, default=7)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_table, family="W2", t=None)

    p = sub.add_parser("sweep", help="check a custom congruence spec")
    p.add_argument("--series", required=True, help=_SERIES_HELP)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--a", type=int, required=True, help="progression step")
    p.add_argument("--b", type=int, required=True, help="progression offset")
    p.add_argument("--mod", type=int, default=None,
                   help="modulus; omit to demand exact zeros")
    p.add_argument("--nmax", type=int, default=100)
    p.add_argument("--precision", type=_positive_int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def _check_output(output: Optional[str]):
    """Reject an empty output path, or one whose directory is missing, or
    that is itself a directory, before any work is done; nothing is
    created or truncated.  ``_write`` checks again."""
    if output is None or output == "-":
        return
    directory = os.path.dirname(output) or "."
    reason = (errno.EISDIR if os.path.isdir(output) else
              errno.ENOENT if not (output and os.path.exists(directory)) else
              errno.ENOTDIR if not os.path.isdir(directory) else None)
    if reason:
        raise ValueError(f"cannot write {output}: {os.strerror(reason)}")


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _check_output(args.output)
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
