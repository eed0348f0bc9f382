from collections import Counter

import pytest

from qdissect import theta, verification
from qdissect.series import QSeries
from qdissect.verification import (
    CongruenceSpec,
    EquidistributionSpec,
    Report,
    _apply_expectation,
    check_congruence,
    check_equidistribution,
    check_oracle_agreement,
    check_relation_chl,
    check_table_v4_n3,
    congruence_catalog,
    equidistribution_catalog,
    run_suite,
    suite_failed,
)


class TestCongruenceChecks:
    def test_true_congruence_passes(self):
        spec = CongruenceSpec("t", "w", 2, 7, 4, 7, 20)
        report = check_congruence(spec, 200)
        assert report.status == "pass"

    def test_false_congruence_fails_with_counterexample(self):
        spec = CongruenceSpec("t", "w", 2, 7, 3, 7, 20)
        report = check_congruence(spec, 200)
        assert report.status == "fail"
        assert report.counterexample is not None
        n = report.counterexample["n"]
        assert report.counterexample["index"] == 7 * n + 3

    def test_exact_zero_mode(self):
        spec = CongruenceSpec("t", "c", 5, 5, 3, None, 20)
        assert check_congruence(spec, 200).status == "pass"
        sparse = CongruenceSpec("t", "d", None, 1, 0, None, 20)
        report = check_congruence(sparse, 200)
        assert report.status == "fail"
        assert report.counterexample == {"n": 0, "index": 0, "value": 1}

    def test_builds_only_the_coefficients_it_reads(self, monkeypatch):
        calls = []
        original = theta.build

        def recording(name, precision, param=None, modulus=None):
            calls.append((name, precision, param, modulus))
            return original(name, precision, param, modulus)

        monkeypatch.setattr(theta, "build", recording)
        spec = CongruenceSpec("t", "w", 1, 5, 4, 5, 10)
        assert check_congruence(spec, 4000).status == "pass"
        assert calls == [("w", 55, 1, 5)]

    def test_insufficient_precision_skips(self):
        spec = CongruenceSpec("t", "w", 2, 7, 4, 7, 100)
        report = check_congruence(spec, 50)
        assert report.status == "skipped"
        assert "needs precision" in report.detail

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CongruenceSpec("t", "w", 2, 0, 0, 7, 10)
        with pytest.raises(ValueError):
            CongruenceSpec("t", "w", 2, 7, 7, 7, 10)
        with pytest.raises(ValueError):
            CongruenceSpec("t", "w", 2, 7, 4, 1, 10)

    @pytest.mark.parametrize("n_max", [-1, -7])
    def test_negative_n_max_is_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            CongruenceSpec("t", "w", 2, 7, 4, 7, n_max)

    def test_statement_text(self):
        spec = CongruenceSpec("t", "w", 2, 7, 4, 7, 10)
        assert spec.statement() == "w_2(7n+4) == 0 (mod 7) for n <= 10"


class TestNegativeControls:
    def test_catalog_has_three_controls(self):
        controls = [s for s in congruence_catalog() if s.expect == "fail"]
        assert len(controls) == 3

    def test_control_that_fails_becomes_pass(self):
        spec = CongruenceSpec("c", "w", 2, 7, 3, 7, 20, expect="fail")
        report = _apply_expectation(check_congruence(spec, 200), spec.expect)
        assert (report.kind, report.status) == ("control", "pass")

    def test_control_that_passes_becomes_fail(self):
        spec = CongruenceSpec("c", "w", 2, 7, 4, 7, 20, expect="fail")
        report = _apply_expectation(check_congruence(spec, 200), spec.expect)
        assert (report.kind, report.status) == ("control", "fail")

    @pytest.mark.parametrize("spec_id, counterexample", [
        ("control-w2-7n3", {"n": 1, "index": 10, "value": 2893}),
        ("control-w4-5n1", {"n": 0, "index": 1, "value": 4}),
        ("control-w2-11n7", {"n": 0, "index": 7, "value": 504}),
    ])
    def test_controls_report_the_integer_value(self, spec_id, counterexample):
        # found on the mod-M route, reported from the integer route
        spec = next(s for s in congruence_catalog() if s.id == spec_id)
        assert check_congruence(spec).counterexample == counterexample

    def test_route_disagreement_raises(self, monkeypatch):
        original = theta.build

        def integer_zero(name, precision, param=None, modulus=None):
            series = original(name, precision, param, modulus)
            if modulus is None:  # the integer route loses w_2(10) = 2893
                series = QSeries(series.coeffs[:10] + (0,) + series.coeffs[11:])
            return series

        monkeypatch.setattr(theta, "_BUILD_CACHE", {})
        monkeypatch.setattr(theta, "build", integer_zero)
        spec = CongruenceSpec("c", "w", 2, 7, 3, 7, 20, expect="fail")
        with pytest.raises(RuntimeError, match="routes disagree at index 10"):
            check_congruence(spec)

    def test_skipped_control_stays_skipped(self):
        spec = CongruenceSpec("c", "w", 2, 7, 3, 7, 20, expect="fail")
        report = _apply_expectation(check_congruence(spec, 5), spec.expect)
        assert report.status == "skipped"


class TestOtherChecks:
    def test_equidistribution_small(self):
        spec = EquidistributionSpec("e", "V", 4, 5, 5, 3, 5)
        assert check_equidistribution(spec, 50).status == "pass"

    def test_equidistribution_skips(self):
        spec = EquidistributionSpec("e", "V", 4, 5, 5, 3, 30)
        assert check_equidistribution(spec, 50).status == "skipped"

    @pytest.mark.parametrize("modulus, step, offset, n_max", [
        (1, 5, 3, 10),   # every distribution is equidistributed mod 1
        (0, 5, 3, 10),
        (5, 0, 3, 10),   # would read index 3 eleven times
        (5, 5, 5, 10),
        (5, 5, -1, 10),
        (5, 5, 3, -1),   # would cover no item
    ], ids=["modulus-1", "modulus-0", "step-0", "offset-step", "offset-negative",
            "n_max-negative"])
    def test_equidistribution_spec_rejects_vacuous_progressions(self, modulus, step,
                                                                offset, n_max):
        with pytest.raises(ValueError):
            EquidistributionSpec("e", "V", 4, modulus, step, offset, n_max)

    def test_equidistribution_spec_rejects_an_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            EquidistributionSpec("e", "X", None, 5, 5, 3, 10)

    def test_oracle_rejects_a_t_for_w2(self):
        with pytest.raises(ValueError, match="W2 fixes t = 2"):
            check_oracle_agreement("W2", 3, 10, precision=5)

    def test_oracle_rejects_v_without_t(self):
        with pytest.raises(ValueError, match="requires --t"):
            check_oracle_agreement("V", None, 10, precision=5)

    def test_chl_relation(self):
        assert check_relation_chl(20, 400).status == "pass"
        assert check_relation_chl(150, 100).status == "skipped"

    def test_oracle_agreement(self):
        assert check_oracle_agreement("V", 1, 6).status == "pass"
        assert check_oracle_agreement("W2", None, 6).status == "pass"

    def test_table(self):
        assert check_table_v4_n3().status == "pass"

    @pytest.mark.parametrize("run", [
        lambda: check_oracle_agreement("V", 1, -1),
        lambda: check_oracle_agreement("W2", None, -1),
        lambda: check_relation_chl(-1, 400),
    ], ids=["oracle-v1", "oracle-w2", "chl"])
    def test_zero_item_checks_skip(self, run, monkeypatch):
        # a check of no items must not pass, and must not even build a series
        monkeypatch.setattr(theta, "build", None)
        report = run()
        assert (report.status, report.detail) == ("skipped", "covers no items")
        assert report.checked == ""


@pytest.fixture(scope="module")
def unfiltered():
    return {r.id: r for r in run_suite(precision=220)}


class TestSuite:
    def test_low_precision_run_never_falsely_passes(self):
        reports = run_suite(precision=10)
        assert reports
        assert {r.status for r in reports} <= {"pass", "skipped"}
        assert not suite_failed(reports)
        # plenty must actually be skipped at precision 10
        assert sum(r.status == "skipped" for r in reports) >= 10

    def test_oracle_checks_skip_below_their_precision(self):
        reports = run_suite(precision=10, name_filter="oracle")
        assert [(r.status, r.detail) for r in reports] == [
            ("skipped", "needs precision 11, have 10")] * 5

    def test_deterministic_order(self):
        a = [(r.id, r.status) for r in run_suite(precision=10)]
        b = [(r.id, r.status) for r in run_suite(precision=10)]
        assert a == b

    def test_name_filter(self):
        reports = run_suite(precision=10, name_filter="mod5")
        assert reports
        assert all("mod5" in r.id for r in reports)

    def test_filter_runs_only_matching_checks(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check outside the filter ran")

        for name in ("check_congruence", "check_equidistribution",
                     "check_oracle_agreement", "check_table_v4_n3"):
            monkeypatch.setattr(verification, name, must_not_run)
        monkeypatch.setattr(theta, "verify_entry", must_not_run)
        reports = run_suite(2000, name_filter="chl")
        assert [(r.id, r.status) for r in reports] == [("chl-relation", "pass")]

    @pytest.mark.parametrize("name_filter", [
        "identity-3dis", "mod5", "control", "equi-v4", "chl", "table", "oracle-w2",
        "d-", "c4-partition",
    ])
    def test_filtered_reports_equal_unfiltered(self, name_filter, unfiltered):
        def strip(report):
            out = report.to_dict()
            del out["millis"]
            return out

        got = run_suite(precision=220, name_filter=name_filter)
        assert [r.id for r in got] == [i for i in unfiltered if name_filter in i]
        assert [strip(r) for r in got] == [strip(unfiltered[r.id]) for r in got]

    def test_filter_matching_nothing_is_an_error(self):
        with pytest.raises(ValueError, match="no suite item matches"):
            run_suite(precision=10, name_filter="none-such")

    def test_unique_ids(self):
        ids = [r.id for r in run_suite(precision=10)]
        assert len(ids) == len(set(ids))

    def test_suite_failed_detects_failure(self):
        assert suite_failed([Report("x", "congruence", "s", "fail")])
        assert not suite_failed([Report("x", "congruence", "s", "skipped")])

    def test_catalog_specs_are_well_formed(self):
        for spec in equidistribution_catalog():
            assert spec.statistic_modulus in (5, 7)
            assert 0 <= spec.offset < spec.step


def _longest(builds) -> dict:
    out = {}
    for name, param, modulus, length in builds:
        key = (name, param, modulus)
        out[key] = max(length, out.get(key, 0))
    return out


class TestSuiteWarmUp:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The builds of each ``theta.build_longest`` warm-up, and every
        ``build`` call with whether it expanded a series."""
        log = {"warm": [], "builds": []}
        build_longest, build, expand = (
            theta.build_longest, theta.build, theta.expand_univariate)
        expanded = []

        def recording_build_longest(builds):
            log["warm"].append(list(builds))
            build_longest(log["warm"][-1])

        def recording_build(name, precision, param=None, modulus=None):
            expanded.clear()
            series = build(name, precision, param, modulus)
            log["builds"].append(((name, param, modulus, precision), bool(expanded)))
            return series

        def recording_expand(*args):
            expanded.append(True)
            return expand(*args)

        monkeypatch.setattr(theta, "build_longest", recording_build_longest)
        monkeypatch.setattr(theta, "build", recording_build)
        monkeypatch.setattr(theta, "expand_univariate", recording_expand)
        return log

    @staticmethod
    def strip(reports) -> list:
        return [{k: v for k, v in r.to_dict().items() if k != "millis"} for r in reports]

    def test_each_key_misses_once_with_reports_unchanged(self, monkeypatch, recorded):
        warmed = self.strip(run_suite(2000))
        [warm] = recorded["warm"]
        builds = [call for call, _ in recorded["builds"]]
        misses = Counter(call[:3] for call, miss in recorded["builds"] if miss)
        assert len(misses) == 41 and set(misses.values()) == {1}
        assert _longest(warm) == _longest(builds)
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})
        monkeypatch.setattr(theta, "build_longest", lambda builds: None)
        assert self.strip(run_suite(2000)) == warmed

    def test_the_warm_up_fits_in_the_cache(self, recorded):
        # an eager warm-up past the key cap would evict series before any
        # check reads them
        assert "skipped" not in {r.status for r in run_suite(2000)}
        [warm] = recorded["warm"]
        assert len(_longest(warm)) <= theta._BUILD_CACHE_KEYS

    @pytest.mark.parametrize("precision, name_filter", [
        (300, None), (2000, "mod5-w5"), (2000, "identity-mod3"), (300, "w3")])
    def test_only_checks_that_run_are_warmed(self, recorded, precision, name_filter):
        run_suite(precision, name_filter)
        [warm] = recorded["warm"]
        assert _longest(warm) == _longest(call for call, _ in recorded["builds"])
        if precision == 300:
            assert ("w", 3, 27) not in _longest(warm)  # 1944 terms, skipped at 300

    def test_a_filter_warms_only_its_checks(self, recorded):
        run_suite(2000, "mod5-w5")
        assert _longest(recorded["warm"][0]) == {("w", 5, 5): 505}


class TestReportSerialization:
    def test_counterexample_ints_become_strings(self):
        r = Report("x", "congruence", "s", "fail",
                   counterexample={"n": 3, "value": 10 ** 40, "classes": "[1]"})
        d = r.to_dict()
        assert d["counterexample"]["value"] == str(10 ** 40)
        assert d["counterexample"]["classes"] == "[1]"

    def test_optional_fields_omitted(self):
        d = Report("x", "congruence", "s", "pass").to_dict()
        assert "counterexample" not in d
        assert "detail" not in d
