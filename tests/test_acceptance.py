"""Acceptance gate: one test per top-level claim, at full scale.

Each test prints a single ACCEPTANCE pass/fail line in addition to its
pytest verdict.  Time budgets are asserted where the claim carries one.
"""

import time
from collections import Counter

from qdissect import combinatorics as comb
from qdissect import theta, verification
from qdissect.series import pochhammer_series
from qdissect.theta import (
    build,
    catalog,
    jacobi_cube_sum,
    pentagonal_sum,
    phi_neg_sum,
    phi_sum,
    psi_sum,
)

FULL_PRECISION = 2000


def _report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_rank_table_reproduction():
    start = time.perf_counter()
    vectors = comb.enumerate_vectors("V", 4, 3)
    multiset = Counter((v.weight, v.statistic) for v in vectors)
    dist = comb.statistic_distribution("V", 4, 3)
    classes = [sum(c for m, c in dist.items() if m % 5 == k) for k in range(5)]
    elapsed = time.perf_counter() - start
    expected = Counter({
        (1, 1): 3, (1, -1): 3, (1, 2): 3, (1, -2): 3,
        (1, 0): 2, (1, 3): 2, (1, -3): 2,
        (1, 4): 1, (1, -4): 1, (1, 5): 1, (1, -5): 1, (1, 6): 1, (1, -6): 1,
        (-1, 1): 1, (-1, -1): 1, (-1, 2): 1, (-1, -2): 1,
    })
    ok = (
        len(vectors) == 28
        and multiset == expected
        and classes == [4, 4, 4, 4, 4]
        and sum(dist.values()) == 20
        and build("w", 4, 4)[3] == 20
        and elapsed < 1.0
    )
    _report("1-rank-table", ok, f"{len(vectors)} vectors in {elapsed:.3f}s")


def test_criterion_2_identity_catalog():
    entries = catalog()
    reports = [theta.verify_entry(e) for e in entries]
    bad = [r.id for r in reports if r.status != "pass"]
    ok = len(entries) >= 14 and not bad
    ok = ok and all(
        e.default_precision >= (500 if e.id.startswith("2dis") else 120)
        for e in entries
    )
    _report("2-identity-catalog", ok,
            f"{len(entries)} identities" + (f"; failing: {bad}" if bad else ""))


def test_criterion_3_congruence_sweeps():
    start = time.perf_counter()
    specs = [
        s for s in verification.congruence_catalog()
        if s.series == "w" and s.expect == "pass"
    ]
    reports = [verification.check_congruence(s, FULL_PRECISION) for s in specs]
    elapsed = time.perf_counter() - start
    bad = [r.id for r in reports if r.status != "pass"]
    spot = build("w", FULL_PRECISION, 2)[4] == 63
    ok = len(specs) >= 17 and not bad and spot and elapsed < 120.0
    _report("3-congruence-sweeps", ok,
            f"{len(specs)} sweeps at precision {FULL_PRECISION} in {elapsed:.1f}s")


def test_criterion_4_coefficient_relation():
    report = verification.check_relation_chl(150, FULL_PRECISION)
    a2 = build("a2", FULL_PRECISION)
    spot = a2[120] == 14641 and a2[0] == 1
    ok = report.status == "pass" and spot
    detail = "a2(120)=14641" if spot else f"a2(120)={a2[120]}"
    if report.status == "fail":
        detail += f"; counterexample {report.counterexample}"
    _report("4-coefficient-relation", ok, detail)


def test_criterion_5_oracle_equivalence():
    bad = []
    for family, t in (("V", 1), ("V", 2), ("V", 4), ("V", 5), ("W2", None)):
        report = verification.check_oracle_agreement(family, t, 10)
        if report.status != "pass":
            bad.append((report.id, report.detail))
    _report("5-oracle-equivalence", not bad, str(bad) if bad else "5 families, n <= 10")


def test_criterion_6_equidistribution():
    reports = [
        verification.check_equidistribution(s, FULL_PRECISION)
        for s in verification.equidistribution_catalog()
    ]
    bad = [r.id for r in reports if r.status != "pass"]
    # spot value: the seven vector-crank classes at n = 4 all equal 9
    buckets = comb.series_counts("W2", None, 5, z_mod=7).residue_buckets(7)
    spot = all(b[4] == 9 for b in buckets)
    ok = len(reports) == 9 and not bad and spot
    _report("6-equidistribution", ok,
            f"{len(reports)} progressions" + (f"; failing: {bad}" if bad else ""))


def test_criterion_7_parity_weighted_suite():
    specs = [
        s for s in verification.congruence_catalog()
        if s.series == "c" and s.expect == "pass"
    ]
    reports = [verification.check_congruence(s, FULL_PRECISION) for s in specs]
    reports += verification._check_parity_weighted(FULL_PRECISION)
    # the two w4 5-power sweeps belong to the same theorem
    for sid in ("mod5-w4-5n3", "mod25-w4-25n23"):
        spec = next(s for s in verification.congruence_catalog() if s.id == sid)
        reports.append(verification.check_congruence(spec, FULL_PRECISION))
    bad = [r.id for r in reports if r.status != "pass"]
    _report("7-parity-weighted-suite", not bad,
            f"{len(reports)} checks" + (f"; failing: {bad}" if bad else ""))


def test_criterion_8_negative_controls_and_skips():
    controls = [s for s in verification.congruence_catalog() if s.expect == "fail"]
    raw = [verification.check_congruence(s, 400) for s in controls]
    controls_fail = (
        len(controls) == 3
        and all(r.status == "fail" and r.counterexample is not None for r in raw)
    )
    starved = verification.run_suite(precision=10)
    no_false_pass = {r.status for r in starved} <= {"pass", "skipped"} and any(
        r.status == "skipped" for r in starved
    )
    ok = controls_fail and no_false_pass
    _report("8-negative-controls", ok,
            f"{len(controls)} controls fail with counterexamples; "
            f"{sum(r.status == 'skipped' for r in starved)} starved checks skipped")


def test_criterion_9_dual_form_theta():
    start = time.perf_counter()
    n = 1000
    ok = (
        pochhammer_series(1, 1, n).coeffs == pentagonal_sum(n).coeffs
        and build("f", n, 1).power(3).coeffs == jacobi_cube_sum(n).coeffs
        and build("phi", n).coeffs == phi_sum(n).coeffs
        and build("phi_neg", n).coeffs == phi_neg_sum(n).coeffs
        and build("psi", n).coeffs == psi_sum(n).coeffs
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report("9-dual-form-theta", ok, f"N = {n} in {elapsed:.2f}s")
