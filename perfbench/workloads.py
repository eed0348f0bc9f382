"""Workload definitions, seeded instance selection and the verdict gate.

A workload is a list of instances.  The seed draws each instance from a
pool whose members cost about the same, so that run-to-run spread across
seeds stays small.  Every pool member has a committed digest of its
canonical output in ``digests.json`` (see ``make_digests.py``).
"""

from __future__ import annotations

import hashlib
import json
import random

SUITE_PRECISION = 2000
SWEEP_PRECISION = 4000

# Layer claims checked by the traced run.  A layer named in "stresses"
# must hold at least STRESS_SHARE of the traced wall time as self time.
# An entry of "bypasses" (a layer, or a span name such as
# "products.expand_bivariate") must see no call at all.
STRESS_SHARE = 0.03
LAYER_CLAIMS = {
    "suite": {
        # the default user path: identities, congruences, equidistribution
        # and oracle checks all run, so every layer is called; verification,
        # theta and cli only orchestrate and hold little self time
        "stresses": ["series", "products", "combinatorics"],
        "bypasses": [],
    },
    "sweep-deep": {
        # congruence sweeps read one univariate series each; no rank or
        # crank statistic is involved
        "stresses": ["series"],
        "bypasses": ["bivariate", "combinatorics", "products.expand_bivariate"],
    },
    "statistics": {
        # rank/crank tables and checks: enumeration, bivariate expansion
        # and JSON rendering; the univariate side only builds w_t totals
        "stresses": ["cli", "combinatorics", "products"],
        "bypasses": ["theta.evaluate", "theta.verify_entry"],
    },
}

# --- sweep-deep pools ------------------------------------------------------
# True congruence families of the catalog, by (series, t).  The w and c
# slots draw t from disjoint sets of similar build cost;
# the control is one of the catalog's negative controls.
SWEEP_FAMILIES = {
    ("w", 1): [(5, 4, 5)],
    ("w", 9): [(5, 3, 5)],
    ("w", 10): [(5, 3, 5), (5, 4, 5)],
    ("c", 9): [(5, 3, 5)],
    ("c", 10): [(5, 3, None), (5, 4, None)],
}
SWEEP_CONTROLS = [("w", 2, 7, 3, 7), ("w", 4, 5, 1, 5), ("w", 2, 11, 7, 11)]

# --- statistics pools ------------------------------------------------------
# (t, n) pairs whose V_t tables hold 19.6k-22k vectors each.
RANK_TABLES = [(2, 12), (3, 13), (5, 14), (6, 14), (7, 14)]
CRANK_TABLE_N = 11
ORACLE_N = 12  # above verification.ENUM_CHECK_LIMIT
ORACLE_V_T = [2, 4, 5]
# Catalog equidistribution progressions, extended so the bivariate
# expansion reaches a few hundred q-degrees.
EQUI_V = [(4, 3), (5, 3), (5, 4), (6, 4), (9, 3), (10, 3), (10, 4)]
EQUI_V_NMAX = 80
EQUI_W2_NMAX = 60


def _sweep_instance(series, t, a, b, modulus, expect):
    nmax = (SWEEP_PRECISION - 1 - b) // a
    args = ["sweep", "--series", series, "--t", str(t), "--a", str(a),
            "--b", str(b)]
    if modulus is not None:
        args += ["--mod", str(modulus)]
    args += ["--nmax", str(nmax), "--precision", str(SWEEP_PRECISION)]
    return {"key": " ".join(args), "kind": "cli", "args": args,
            "expect": expect, "series": series, "t": t}


def _suite_instances(rng):
    args = ["suite", "--precision", str(SUITE_PRECISION), "--format", "json"]
    return [{"key": "suite", "kind": "cli", "args": args, "expect": "pass"}]


def _sweep_instances(rng):
    w_pairs = sorted(k for k in SWEEP_FAMILIES if k[0] == "w")
    c_pairs = sorted(k for k in SWEEP_FAMILIES if k[0] == "c")
    w_pair = rng.choice(w_pairs)
    # distinct t keeps the f_t Pochhammer expansion from being shared
    c_pair = rng.choice([p for p in c_pairs if p[1] != w_pair[1]])
    out = [
        _sweep_instance(*pair, *rng.choice(SWEEP_FAMILIES[pair]), "pass")
        for pair in (w_pair, c_pair)
    ]
    out.append(_sweep_instance(*rng.choice(SWEEP_CONTROLS), "fail"))
    rng.shuffle(out)
    return out


def _statistics_set(rank, oracle_t, equi):
    t, n = rank
    et, offset = equi
    rank_args = ["ranktable", "--family", "V", "--t", str(t), "--n", str(n),
                 "--modulus", "5", "--format", "json"]
    crank_args = ["cranktable", "--n", str(CRANK_TABLE_N), "--modulus", "7",
                  "--format", "json"]
    return [
        {"key": " ".join(rank_args), "kind": "cli", "args": rank_args,
         "expect": "pass", "t": t, "n": n},
        {"key": " ".join(crank_args), "kind": "cli", "args": crank_args,
         "expect": "pass", "t": 2, "n": CRANK_TABLE_N},
        {"key": f"oracle V {oracle_t} {ORACLE_N}", "kind": "oracle",
         "params": ["V", oracle_t, ORACLE_N], "expect": "pass"},
        {"key": f"oracle W2 {ORACLE_N}", "kind": "oracle",
         "params": ["W2", None, ORACLE_N], "expect": "pass"},
        {"key": f"equi V {et} 5n{offset} {EQUI_V_NMAX}", "kind": "equidistribution",
         "params": [f"equi-v{et}-5n{offset}", "V", et, 5, 5, offset, EQUI_V_NMAX],
         "expect": "pass"},
        {"key": f"equi W2 7n4 {EQUI_W2_NMAX}", "kind": "equidistribution",
         "params": ["equi-w2-7n4", "W2", None, 7, 7, 4, EQUI_W2_NMAX],
         "expect": "pass"},
    ]


def _statistics_instances(rng):
    return _statistics_set(rng.choice(RANK_TABLES), rng.choice(ORACLE_V_T),
                           rng.choice(EQUI_V))


_MAKERS = {
    "suite": _suite_instances,
    "sweep-deep": _sweep_instances,
    "statistics": _statistics_instances,
}
WORKLOADS = tuple(_MAKERS)


def instances(workload: str, seed: int) -> list:
    """The instances one repetition of ``workload`` runs for ``seed``."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


def pool(workload: str) -> list:
    """Every instance any seed can draw, for digest generation."""
    if workload == "suite":
        return _suite_instances(None)
    if workload == "sweep-deep":
        out = [_sweep_instance(*pair, *fam, "pass")
               for pair, fams in sorted(SWEEP_FAMILIES.items()) for fam in fams]
        return out + [_sweep_instance(*c, "fail") for c in SWEEP_CONTROLS]
    seen = {}
    for i in range(max(len(RANK_TABLES), len(ORACLE_V_T), len(EQUI_V))):
        chosen = _statistics_set(RANK_TABLES[i % len(RANK_TABLES)],
                                 ORACLE_V_T[i % len(ORACLE_V_T)],
                                 EQUI_V[i % len(EQUI_V)])
        seen.update((inst["key"], inst) for inst in chosen)
    return list(seen.values())


# --- independent reference values -------------------------------------------

def eta_quotient_coeffs(powers: dict, n: int) -> list:
    """Coefficients of prod f_k^e to precision n, factor by factor."""
    c = [1] + [0] * (n - 1)
    for k, e in powers.items():
        for _ in range(abs(e)):
            for m in range(k, n, k):
                if e > 0:
                    for i in range(n - 1, m - 1, -1):
                        c[i] -= c[i - m]
                else:
                    for i in range(m, n):
                        c[i] += c[i - m]
    return c


def reference_coefficient(series: str, t: int, index: int) -> int:
    """w_t(index) = [q^index] f2^5/(f1^4 f_t^2), c_t = f4^2/(f2 f_t^2)."""
    base = {"w": {2: 5, 1: -4}, "c": {4: 2, 2: -1}}[series]
    powers = dict(base)
    powers[t] = powers.get(t, 0) - 2
    return eta_quotient_coeffs(powers, index + 1)[index]


# Spot checks on values the suite computed, known independently:
# w_2(4) = 63, and a2(120) = 11^4 a2(0) by the mod-11 relation at n = 0.
SUITE_SPOT_CHECKS = [("w", 2, 4, 63), ("a2", None, 120, 14641)]


# --- canonical digests and verdicts ------------------------------------------

def strip_millis(obj):
    if isinstance(obj, dict):
        return {k: strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [strip_millis(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(strip_millis(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verdicts(inst: dict, outcome: dict, build=None) -> list:
    """Check records ``(key, digest_or_None, ok, note)`` for one instance.

    ``outcome`` holds ``exit`` (CLI exit code or None), ``output`` (parsed
    JSON or None) and ``error`` (exception text or None).  ``ok`` covers the
    expected verdict and the spot checks; the digest comparison against the
    committed file is made by the caller.  ``build`` is ``theta.build``,
    used to read back suite values after the timed region.
    """
    key, expect, out = inst["key"], inst["expect"], outcome["output"]
    if outcome["error"] is not None or out is None:
        return [(key, None, False, f"error: {outcome['error']}")]
    records = []
    if inst["kind"] == "cli" and outcome["exit"] != (1 if expect == "fail" else 0):
        records.append((key + " #exit", None, False, f"exit code {outcome['exit']}"))
    if key == "suite":
        for r in out:
            ok = r["status"] == "pass"
            records.append(("suite/" + r["id"], digest(r), ok, r["status"]))
        for name, param, index, value in SUITE_SPOT_CHECKS:
            got = build(name, SUITE_PRECISION, param)[index]
            records.append((f"suite/spot {name}{param or ''}({index})", None,
                            got == value, f"{got} (expected {value})"))
        return records
    if inst["kind"] == "cli" and inst["args"][0] in ("ranktable", "cranktable"):
        classes = sum(int(c) for c in out["residue_classes"].values())
        total = int(out["total"])
        ref = reference_coefficient("w", inst["t"], inst["n"])
        records.append((key, digest(out), True, f"{len(out['vectors'])} vectors"))
        records.append((key + " #total", None, classes == total == ref,
                        f"classes {classes}, total {total}, w_{inst['t']}({inst['n']}) = {ref}"))
        return records
    status = out["status"]
    ok = status == expect
    note = status
    if expect == "fail":
        ce = out.get("counterexample") or {}
        ok = ok and "index" in ce
        if ok:
            ref = reference_coefficient(inst["series"], inst["t"], int(ce["index"]))
            records.append((key + " #counterexample", None, int(ce["value"]) == ref,
                            f"value {ce['value']}, reference {ref}"))
    records.append((key, digest(out), ok, note))
    return records
