"""The theorem suite: congruence sweeps, equidistribution checks, the
coefficient relation behind the mod-11 congruence, and negative controls.

Each check is a ``Check`` record (id, kind, statement, needed precision,
``checked`` range, item count, the named series it reads) with a body
that takes those series and returns None when the claim holds, else
``(detail, counterexample)``.  One runner, ``_run_check``, skips, or
builds the series and runs and times the body, and turns every record
into a Report: a check that would need more series coefficients than
the run's precision, or that covers no item, reports "skipped", never a
false "pass".
``run_suite`` selects items by id before any of them runs, and builds
each named series once, at the longest length a selected check that
runs asks for (``theta.build_longest``); every check then reads a prefix.
A congruence sweep mod M reads residues mod M; the value it reports for
a failure comes from the integer expansion, which must agree.
"""

from __future__ import annotations

import itertools
import time
from functools import partial
from typing import Callable, Optional

from . import combinatorics as comb
from . import theta
from ._record import record

DEFAULT_PRECISION = 2000
ENUM_CHECK_LIMIT = 10  # q-degrees up to which enumeration cross-checks run


def _family_name(family: str, t: Optional[int]) -> str:
    return f"V_{t}" if family == "V" else "W2"


@record(frozen=True)
class CongruenceSpec:
    """source[a*n + b] == 0 (mod modulus) for 0 <= n <= n_max.

    ``modulus`` None demands exact zero coefficients.
    """

    id: str
    series: str
    param: Optional[int]
    step: int
    offset: int
    modulus: Optional[int]
    n_max: int
    expect: str = "pass"  # negative controls set "fail"

    def __post_init__(self):
        if self.step < 1 or not 0 <= self.offset < self.step:
            raise ValueError("need step >= 1 and 0 <= offset < step")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2 (or None for exact zero)")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")

    def statement(self) -> str:
        name = self.series + (f"_{self.param}" if self.param is not None else "")
        rel = "= 0" if self.modulus is None else f"== 0 (mod {self.modulus})"
        return f"{name}({self.step}n+{self.offset}) {rel} for n <= {self.n_max}"


@record(frozen=True)
class EquidistributionSpec:
    """All residue classes of the statistic mod m are equal on a progression."""

    id: str
    family: str
    t: Optional[int]
    statistic_modulus: int
    step: int
    offset: int
    n_max: int

    def __post_init__(self):
        comb.family_t(self.family, self.t)  # an unknown family or bad t raises
        # every distribution is equidistributed mod 1: such a check is vacuous
        if self.statistic_modulus < 2:
            raise ValueError("statistic modulus must be >= 2")
        if self.step < 1 or not 0 <= self.offset < self.step:
            raise ValueError("need step >= 1 and 0 <= offset < step")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")

    def statement(self) -> str:
        fam = _family_name(self.family, self.t)
        return (
            f"{fam} statistic classes mod {self.statistic_modulus} are equal "
            f"at {self.step}n+{self.offset} for n <= {self.n_max}"
        )


@record
class Report:
    id: str
    kind: str
    statement: str
    status: str                      # "pass" | "fail" | "skipped"
    checked: str = ""
    detail: str = ""
    counterexample: Optional[dict] = None
    millis: float = 0.0
    needed: int = 0                  # precision the check needs; not serialized

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "kind": self.kind,
            "statement": self.statement,
            "status": self.status,
            "checked": self.checked,
            "millis": round(self.millis, 3),
        }
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = {
                k: str(v) if isinstance(v, int) else v
                for k, v in self.counterexample.items()
            }
        return out


@record(frozen=True)
class Check:
    """One suite item as data; ``_run_check`` turns it into a Report."""

    id: str
    kind: str
    statement: str
    needed: int      # series coefficients the body reads; 0 if it reads none
    checked: str     # the range covered, as reported
    body: Callable[..., Optional[tuple]]  # body(*series): None, or (detail, counterexample)
    items: int = 1   # cases covered; a check of none is skipped
    builds: tuple = ()  # (name, param, modulus, length) of each series passed to the body


def _skip_reason(check: Check, precision: Optional[int]) -> str:
    """Why ``check`` is skipped at ``precision``; empty when it runs.
    ``precision`` None runs the check whatever it needs."""
    if check.items < 1:
        return "covers no items"
    if precision is not None and check.needed > precision:
        return f"needs precision {check.needed}, have {precision}"
    return ""


def _run_check(check: Check, precision: Optional[int] = None) -> Report:
    """Skip, or build the series of, run and time one check; the only
    place a Report is made."""
    start = time.perf_counter()
    report = Report(check.id, check.kind, check.statement, "skipped", needed=check.needed)
    report.detail = _skip_reason(check, precision)
    if not report.detail:
        outcome = check.body(*(theta.build(name, length, param, modulus)
                               for name, param, modulus, length in check.builds))
        report.checked = check.checked
        report.status = "pass" if outcome is None else "fail"
        if outcome is not None:
            report.detail, report.counterexample = outcome
    report.millis = (time.perf_counter() - start) * 1000.0
    return report


def _first(counterexamples) -> Optional[tuple]:
    """The failing outcome for the first of ``counterexamples``, if any."""
    for counterexample in counterexamples:
        return "", counterexample
    return None


def _congruence_check(spec: CongruenceSpec) -> Check:
    def body(series):
        # residues mod the spec's modulus, or integers for exact zeros
        for n in range(spec.n_max + 1):
            index = spec.step * n + spec.offset
            residue = series[index]
            if residue:
                # the reported value comes from the integer route, which
                # must reduce to the same nonzero residue
                value = theta.build(spec.series, index + 1, spec.param)[index]
                if (value if spec.modulus is None else value % spec.modulus) != residue:
                    raise RuntimeError(
                        f"{spec.id}: routes disagree at index {index}: integer "
                        f"{value}, residue {residue} mod {spec.modulus}")
                return "", {"n": n, "index": index, "value": value}
        return None

    # the integer read-back of a failure is no longer than ``needed``
    needed = spec.step * spec.n_max + spec.offset + 1
    return Check(spec.id, "congruence", spec.statement(), needed, f"n <= {spec.n_max}",
                 body, spec.n_max + 1, ((spec.series, spec.param, spec.modulus, needed),))


def check_congruence(spec: CongruenceSpec, precision: int = DEFAULT_PRECISION) -> Report:
    return _run_check(_congruence_check(spec), precision)


def _equidistribution_check(spec: EquidistributionSpec) -> Check:
    m = spec.statistic_modulus
    t = comb.family_t(spec.family, spec.t)
    needed = spec.step * spec.n_max + spec.offset + 1
    indices = [spec.step * n + spec.offset for n in range(spec.n_max + 1)]

    def body(totals):
        # generating-function route, with z-exponents folded mod m
        buckets = comb.series_counts(spec.family, spec.t, needed, z_mod=m).residue_buckets(m)
        for n, idx in enumerate(indices):
            values = [b[idx] for b in buckets]
            if len(set(values)) != 1 or values[0] * m != totals[idx]:
                return "", {"n": n, "index": idx, "classes": str(values)}
        # enumeration route on the small degrees of the progression
        for idx in (i for i in indices if i <= ENUM_CHECK_LIMIT):
            dist = comb.statistic_distribution(spec.family, spec.t, idx)
            classes = comb.residue_classes(dist, m)
            if classes != [b[idx] for b in buckets]:
                return ("enumeration disagrees with generating function",
                        {"index": idx, "classes": str(classes)})
        return None

    checked = f"n <= {spec.n_max} (gf), degrees <= {ENUM_CHECK_LIMIT} (enumeration)"
    return Check(spec.id, "equidistribution", spec.statement(), needed, checked, body,
                 len(indices), (("w", t, None, needed),))


def check_equidistribution(
    spec: EquidistributionSpec, precision: int = DEFAULT_PRECISION
) -> Report:
    return _run_check(_equidistribution_check(spec), precision)


def _relation_chl_check(n_max: int) -> Check:
    def body(a2):
        pairs = ((n, a2[11 * n + 120], 11 ** 4 * a2[n // 11] if n % 11 == 0 else 0)
                 for n in range(n_max + 1))
        return _first({"n": n, "left": left, "right": right}
                      for n, left, right in pairs if left != right)

    statement = f"a2(11n+120) = 11^4 a2(n/11) for n <= {n_max}"
    needed = 11 * n_max + 121
    return Check("chl-relation", "relation", statement, needed, f"n <= {n_max}", body,
                 n_max + 1, (("a2", None, None, needed),))


def check_relation_chl(n_max: int = 150, precision: int = DEFAULT_PRECISION) -> Report:
    """a2(11n + 120) = 11^4 * a2(n/11), with a2(x) = 0 off integers,
    where a2 is the coefficient family of f2^14 / f1^4."""
    return _run_check(_relation_chl_check(n_max), precision)


def _oracle_check(family: str, t: Optional[int], n_limit: int) -> Check:
    t_family = comb.family_t(family, t)  # an unknown family or bad t raises
    fam = _family_name(family, t)

    def body(w):
        gf = comb.series_counts(family, t, n_limit + 1)
        if not gf.is_z_symmetric():
            return "generating function not symmetric under z -> 1/z", None
        for n in range(n_limit + 1):
            dist = comb.statistic_distribution(family, t, n)
            if dist != gf.z_coefficients(n):
                return "enumeration disagrees with gf", {"n": n}
            if any(dist.get(-s, 0) != c for s, c in dist.items()):
                return "distribution not symmetric", {"n": n}
            if sum(dist.values()) != w[n]:
                return "total differs from w(n)", {"n": n}
            if family == "V" and any(c < 0 for c in dist.values()):
                return "negative weighted count", {"n": n}
        return None

    statement = (
        f"{fam}: enumeration = gf coefficients, symmetric, totals w(n), n <= {n_limit}"
    )
    return Check("oracle-" + fam.lower(), "oracle", statement, n_limit + 1,
                 f"n <= {n_limit}", body, n_limit + 1, (("w", t_family, None, n_limit + 1),))


def check_oracle_agreement(
    family: str, t: Optional[int], n_limit: int = ENUM_CHECK_LIMIT,
    precision: Optional[int] = None,
) -> Report:
    """Enumeration distributions vs generating-function z-coefficients,
    plus symmetry, totals, and (for V) nonnegativity."""
    return _run_check(_oracle_check(family, t, n_limit), precision)


def _table_check() -> Check:
    def body():
        vectors = comb.enumerate_vectors("V", 4, 3)
        dist = comb.statistic_distribution("V", 4, 3)
        classes = comb.residue_classes(dist, 5)
        ok = len(vectors) == 28 and classes == [4] * 5 and sum(dist.values()) == 20
        return None if ok else ("", {"vectors": len(vectors), "classes": str(classes)})

    statement = "V_4 at n=3: 28 vectors, residue classes mod 5 all 4, total 20"
    return Check("table-v4-n3", "table", statement, 0, "", body)


def check_table_v4_n3() -> Report:
    """The 28 vectors of V_4 at n = 3 and their weight/multirank multiset."""
    return _run_check(_table_check())


def _parity_weighted_checks() -> tuple:
    """Section-4 style checks on c_t(n), d(n), and p(n)."""
    def d_pentagonal(d):
        return _first({"n": n, "value": d[n]} for n in range(d.precision)
                      if d[n] != comb.pentagonal_d(n))

    def d_enumeration(d):
        return _first({"n": n} for n in range(d.precision)
                      if d[n] != comb.parity_weighted_enumeration("W2", None, n))

    def c4_partition(c4):
        p = comb.partition_counts((c4.precision - 1) // 2)
        even = (2 * k for k in range(len(p)) if c4[2 * k] != p[k])
        odd = (n for n in range(1, c4.precision, 2) if c4[n] != 0)
        return _first({"index": i, "value": c4[i]} for i in itertools.chain(even, odd))

    def c_enumeration(c1, c4):
        return _first({"t": t, "n": n} for t, ct in ((1, c1), (4, c4))
                      for n in range(ct.precision)
                      if ct[n] != comb.parity_weighted_enumeration("V", t, n))

    return (
        Check("d-pentagonal", "relation", "d(n) matches the pentagonal formula for n <= 200",
              201, "n <= 200", d_pentagonal, builds=(("d", None, None, 201),)),
        Check("d-enumeration", "relation", "d(n) = parity-weighted count over W2 for n <= 10",
              11, "n <= 10", d_enumeration, builds=(("d", None, None, 11),)),
        Check("c4-partition", "relation", "c_4(2k) = p(k) for k <= 100 and c_4(odd) = 0",
              202, "k <= 100", c4_partition, builds=(("c", 4, None, 202),)),
        Check("c-enumeration", "relation",
              "c_t(n) = parity-weighted count over V_t for t in {1,4}, n <= 8",
              9, "n <= 8", c_enumeration, builds=(("c", 1, None, 9), ("c", 4, None, 9))),
    )


def _check_parity_weighted(precision: int, name_filter: Optional[str] = None) -> list:
    """The section-4 checks whose ids match ``name_filter``, run."""
    return [_run_check(c, precision) for c in _parity_weighted_checks()
            if _matches(c.id, name_filter)]


def _identity_check(entry: theta.IdentityEntry) -> Check:
    def body(*_):
        # verify_entry reads the same prefixes from the cache
        r = theta.verify_entry(entry, entry.default_precision)
        return None if r.status == "pass" else ("", {
            "index": r.mismatch_index, "left": r.mismatch_left, "right": r.mismatch_right})

    return Check(f"identity-{entry.id}", "identity", entry.description,
                 entry.default_precision, f"N = {entry.default_precision}", body,
                 builds=tuple(theta.entry_requests(entry)))


# Congruence families of the suite: for each t, every progression
# (step, offset, modulus, n_max) holds; modulus None demands exact zeros.
_CONGRUENCES = (
    # parity of w_t on odd indices, t even
    ("w", (2, 4, 6), ((2, 1, 4, 100),)),
    # 3-dissection corollaries, t divisible by 3
    ("w", (3, 6), ((3, 1, 4, 100), (3, 2, 9, 100))),
    # the 24n+23 family
    ("w", (3,), ((24, 23, 27, 80), (24, 23, 729, 40))),
    # mod 5 family by residue of t
    ("w", (5, 10), ((5, 3, 5, 100), (5, 4, 5, 100))),
    ("w", (1, 6), ((5, 4, 5, 100),)),
    ("w", (4, 9), ((5, 3, 5, 100),)),
    # mod 7 and mod 11 for w_2
    ("w", (2,), ((7, 4, 7, 100), (11, 10, 11, 100))),
    # 25-power step of the w_4 family (offset 23: the least positive
    # reciprocal of 12 modulo 25; the mod-5 step is the t=4 sweep above)
    ("w", (4,), ((25, 23, 25, 40),)),
    # parity-weighted counts c_t
    ("c", (5, 10), ((5, 3, None, 100), (5, 4, None, 100))),
    ("c", (1, 6), ((5, 4, 5, 100),)),
    ("c", (4, 9), ((5, 3, 5, 100),)),
    ("c", (4,), ((25, 23, 25, 40),)),
)
# negative controls: these progressions carry no claim and must fail
_CONTROLS = (("w", 2, 7, 3, 7), ("w", 4, 5, 1, 5), ("w", 2, 11, 7, 11))


def congruence_catalog() -> list:
    """Every congruence sweep in the suite, negative controls included."""
    specs = [CongruenceSpec(f"{'zero' if m is None else f'mod{m}'}-{s}{t}-{a}n{b}",
                            s, t, a, b, m, n_max)
             for s, ts, progressions in _CONGRUENCES for t in ts
             for a, b, m, n_max in progressions]
    return specs + [CongruenceSpec(f"control-{s}{t}-{a}n{b}", s, t, a, b, m, 20, expect="fail")
                    for s, t, a, b, m in _CONTROLS]


def equidistribution_catalog() -> list:
    # V_t classes mod 5 on the progressions 5n+b of the mod-5 congruences
    specs = [EquidistributionSpec(f"equi-v{t}-5n{b}", "V", t, 5, 5, b, 30)
             for ts, offsets in (((1, 6), (4,)), ((4, 9), (3,)), ((5, 10), (3, 4)))
             for t in ts for b in offsets]
    return specs + [EquidistributionSpec("equi-w2-7n4", "W2", None, 7, 7, 4, 10)]


def _apply_expectation(report: Report, expect: str) -> Report:
    if expect == "fail":
        report.kind = "control"
        if report.status == "fail":
            report.status = "pass"
            report.detail = "negative control failed as required"
        elif report.status == "pass":
            report.status = "fail"
            report.detail = "negative control unexpectedly passed"
    return report


def _matches(item_id: str, name_filter: Optional[str]) -> bool:
    return not name_filter or name_filter in item_id


def run_suite(precision: int = DEFAULT_PRECISION, name_filter: Optional[str] = None) -> list:
    """Run every suite item whose id contains ``name_filter`` (all items
    if it is empty); one report per item, in a stable order.  Items are
    selected before any of them runs; a filter that selects none is a
    ValueError.  Each named series is built once, at the longest length
    that a selected item which is not skipped asks for."""
    items = [(c, partial(_run_check, c, precision), "pass")
             for c in map(_identity_check, theta.catalog())]
    items += [(_congruence_check(s), partial(check_congruence, s, precision), s.expect)
              for s in congruence_catalog()]
    items += [(_equidistribution_check(s), partial(check_equidistribution, s, precision),
               "pass") for s in equidistribution_catalog()]
    items.append((_relation_chl_check(150), partial(check_relation_chl, 150, precision),
                  "pass"))
    items.append((_table_check(), check_table_v4_n3, "pass"))
    items += [(_oracle_check(f, t, ENUM_CHECK_LIMIT),
               partial(check_oracle_agreement, f, t, precision=precision), "pass")
              for f, t in (("V", 1), ("V", 2), ("V", 4), ("V", 5), ("W2", None))]
    items = [item for item in items if _matches(item[0].id, name_filter)]
    checks = [c for c, _, _ in items]
    checks += [c for c in _parity_weighted_checks() if _matches(c.id, name_filter)]
    if not checks:
        raise ValueError(f"no suite item matches {name_filter!r}")
    theta.build_longest(b for c in checks if not _skip_reason(c, precision) for b in c.builds)
    reports = [_apply_expectation(run(), expect) for _, run, expect in items]
    return reports + _check_parity_weighted(precision, name_filter)


def suite_failed(reports: list) -> bool:
    return any(r.status == "fail" for r in reports)
