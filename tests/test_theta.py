import pytest

from qdissect import theta
from qdissect.products import expand_univariate
from qdissect.series import QSeries, equal_upto, pochhammer_series
from qdissect.theta import (
    Const,
    Dissect,
    Pow,
    Ref,
    Scale,
    Shift,
    Sub,
    Sum,
    build,
    catalog,
    catalog_entry,
    entry_requests,
    evaluate,
    jacobi_cube_sum,
    pentagonal_sum,
    phi_neg_sum,
    phi_sum,
    psi_sum,
    requests,
    verify_entry,
)
from qdissect.verification import congruence_catalog

UNIT_PRECISION = 80  # full default precisions are exercised by the suite


class TestNamedSeries:
    def test_psi_prefix(self):
        assert build("psi", 8).coeffs == (1, 1, 0, 1, 0, 0, 1, 0)

    def test_phi_prefix(self):
        assert build("phi", 5).coeffs == (1, 2, 0, 0, 2)

    def test_phi_neg_prefix(self):
        assert build("phi_neg", 5).coeffs == (1, -2, 0, 0, 2)

    def test_w_prefixes(self):
        assert build("w", 6, 4).coeffs == (1, 4, 9, 20, 42, 80)
        assert build("w", 5, 2).coeffs == (1, 4, 11, 28, 63)

    def test_c_prefixes(self):
        assert build("c", 9, 1).coeffs == (1, 2, 6, 12, 25, 46, 86, 148, 255)
        assert build("c", 9, 4).coeffs == (1, 0, 1, 0, 2, 0, 3, 0, 5)

    def test_d_prefix(self):
        assert build("d", 11).coeffs == (1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 1)

    def test_p_is_partition_function(self):
        assert build("p", 8).coeffs == (1, 1, 2, 3, 5, 7, 11, 15)

    def test_f_parameter(self):
        assert build("f", 6, 2).coeffs == (1, 0, -1, 0, -1, 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build("w", 5)  # missing parameter
        with pytest.raises(ValueError):
            build("phi", 5, 3)  # spurious parameter
        with pytest.raises(ValueError):
            build("nope", 5)


class TestBuildCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})

    def fresh(self, name, precision, param=None):
        return expand_univariate(theta.series_spec(name, param), precision)

    def test_short_request_after_long_is_a_prefix(self):
        build("w", 120, 3)
        assert build("w", 50, 3).coeffs == self.fresh("w", 50, 3).coeffs
        assert theta._BUILD_CACHE[("w", 3)].precision == 120

    def test_long_request_after_short_replaces_the_entry(self):
        build("c", 40, 4)
        long = build("c", 90, 4)
        assert long.coeffs == self.fresh("c", 90, 4).coeffs
        assert theta._BUILD_CACHE[("c", 4)].coeffs == long.coeffs

    def test_key_cap_evicts_the_oldest(self):
        cap = theta._BUILD_CACHE_KEYS
        for k in range(1, cap + 3):
            build("f", 5, k)
        assert len(theta._BUILD_CACHE) == cap
        assert ("f", 1) not in theta._BUILD_CACHE and ("f", 2) not in theta._BUILD_CACHE
        assert ("f", cap + 2) in theta._BUILD_CACHE

    def test_negative_precision_is_rejected(self):
        build("p", 10)
        with pytest.raises(ValueError):
            build("p", -1)


class TestBuildLongest:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})

    @pytest.fixture
    def expanded(self, monkeypatch):
        calls, expand = [], theta.expand_univariate

        def recording(spec, precision, modulus=None):
            calls.append((spec, precision, modulus))
            return expand(spec, precision, modulus)

        monkeypatch.setattr(theta, "expand_univariate", recording)
        return calls

    def test_each_key_is_built_once_at_its_longest_length(self, expanded):
        w3 = theta.series_spec("w", 3)
        theta.build_longest([("w", 3, None, 90), ("w", 3, 5, 40), ("w", 3, None, 120)])
        assert expanded == [(w3, 120, None), (w3, 40, 5)]
        short = build("w", 50, 3)
        assert build("w", 7, 3, 5).coeffs == tuple(c % 5 for c in short.coeffs[:7])
        assert short.coeffs == expand_univariate(w3, 50).coeffs
        assert len(expanded) == 2
        assert theta._BUILD_CACHE[("w", 3)].precision == 120
        assert theta._BUILD_CACHE[("w", 3, 5)].precision == 40

    def test_unplanned_and_longer_requests_build_as_asked(self):
        theta.build_longest([("c", 4, None, 30)])
        build("c", 60, 4)
        build("d", 20)
        assert theta._BUILD_CACHE[("c", 4)].precision == 60
        assert theta._BUILD_CACHE[("d", None)].precision == 20


class TestRequests:
    @pytest.mark.parametrize("entry", catalog(), ids=[e.id for e in catalog()])
    def test_entry_requests_are_the_builds_of_verify_entry(self, monkeypatch, entry):
        recorded, original = [], theta.build

        def recording(name, precision, param=None, modulus=None):
            recorded.append((name, param, modulus, precision))
            return original(name, precision, param, modulus)

        monkeypatch.setattr(theta, "build", recording)
        verify_entry(entry)
        assert entry_requests(entry) == recorded
        verify_entry(entry, 37)
        assert entry_requests(entry, 37) == recorded[len(recorded) // 2:]

    def test_precision_arithmetic_of_each_node(self):
        node = Sum((Shift(3, Ref("w", 2)), Shift(9, Ref("d")), Sub(4, Ref("psi")),
                    Dissect(Ref("a1"), 8, 7), Scale(2, Pow(Ref("phi"), -1)), Const(1)))
        assert list(requests(node, 9, 3)) == [
            ("w", 2, 3, 6), ("psi", None, 3, 3), ("a1", None, 3, 72), ("phi", None, 3, 9)]

    def test_rejects_what_evaluate_rejects(self):
        with pytest.raises(ValueError):
            list(requests(Ref("p"), -1))
        with pytest.raises(TypeError):
            list(requests("p", 5))


class TestClosedSums:
    def test_dual_forms_agree(self):
        n = 300
        assert pochhammer_series(1, 1, n).coeffs == pentagonal_sum(n).coeffs
        assert build("f", n, 1).power(3).coeffs == jacobi_cube_sum(n).coeffs
        assert build("f", n, 2).power(3).coeffs == jacobi_cube_sum(n, 2).coeffs
        assert build("phi", n).coeffs == phi_sum(n).coeffs
        assert build("phi_neg", n).coeffs == phi_neg_sum(n).coeffs
        assert build("psi", n).coeffs == psi_sum(n).coeffs

    def test_pentagonal_sum_scaling(self):
        assert pentagonal_sum(30, k=3).coeffs == pochhammer_series(3, 3, 30).coeffs


class TestEvaluator:
    def test_const_and_shift(self):
        assert evaluate(Const(5), 3).coeffs == (5, 0, 0)
        assert evaluate(Shift(1, Const(2)), 3).coeffs == (0, 2, 0)

    def test_shift_past_precision_is_zero(self):
        assert evaluate(Shift(9, Const(1)), 3).coeffs == (0, 0, 0)

    def test_substitution(self):
        got = evaluate(Sub(3, Ref("psi")), 8)
        want = build("psi", 3).substitute_power(3).truncate(8)
        assert got.coeffs == want.coeffs

    def test_dissect_requests_enough_precision(self):
        got = evaluate(Dissect(Ref("w", 4), 2, 1), 3)
        w4 = build("w", 7, 4)
        assert got.coeffs == (w4[1], w4[3], w4[5])

    @pytest.mark.parametrize(
        "node", [side for e in catalog() for side in (e.lhs, e.rhs)
                 if isinstance(side, Dissect)],
        ids=lambda node: f"{node.inner.name}-{node.modulus}-{node.residue}")
    def test_dissect_builds_modulus_times_precision(self, monkeypatch, node):
        # coeffs[r::m] of m * N coefficients holds N terms for every r < m
        calls = []
        original = theta.build

        def recording(name, precision, param=None, modulus=None):
            calls.append((name, precision, param))
            return original(name, precision, param, modulus)

        monkeypatch.setattr(theta, "build", recording)
        assert len(evaluate(node, 40).coeffs) == 40
        assert calls == [(node.inner.name, node.modulus * 40, node.inner.param)]

    def test_sum_scale_pow(self):
        expr = Sum((Scale(2, Const(1)), Pow(Ref("f", 1), 2)))
        got = evaluate(expr, 5)
        want = build("f", 5, 1).power(2) + QSeries.one(5).scale(2)
        assert got.coeffs == want.coeffs

    def test_rejects_non_node(self):
        with pytest.raises(TypeError):
            evaluate("f1", 4)


class TestCatalog:
    def test_size_and_unique_ids(self):
        entries = catalog()
        assert len(entries) >= 14
        assert len({e.id for e in entries}) == len(entries)

    def test_lookup(self):
        assert catalog_entry("key-identity").id == "key-identity"
        with pytest.raises(KeyError):
            catalog_entry("missing")

    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
    def test_entry_passes(self, entry):
        report = verify_entry(entry, UNIT_PRECISION)
        assert report.status == "pass", (
            f"{entry.id} mismatch at {report.mismatch_index}: "
            f"{report.mismatch_left} != {report.mismatch_right}"
        )

    @pytest.mark.parametrize("precision", [0, -1])
    def test_precision_below_one_is_rejected(self, precision):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            verify_entry(catalog_entry("key-identity"), precision)

    def test_broken_entry_reports_mismatch(self):
        entry = theta.IdentityEntry(
            "broken", "f1 = f2 (false)", Ref("f", 1), Ref("f", 2)
        )
        report = verify_entry(entry, 10)
        assert report.status == "fail"
        assert report.mismatch_index == 1
        assert (report.mismatch_left, report.mismatch_right) == (-1, 0)

    def test_broken_modular_entry_reports_residues(self):
        entry = theta.IdentityEntry(
            "broken", "f1 == f2 (mod 3) (false)", Ref("f", 1), Ref("f", 2), modulus=3
        )
        report = verify_entry(entry, 10)
        assert report.status == "fail"
        assert report.mismatch_index == 1
        assert (report.mismatch_left, report.mismatch_right) == (2, 0)


class TestDissectionRecombination:
    def test_two_dissections_rebuild_w(self):
        for t in (2, 6):
            w = build("w", 60, t)
            even = evaluate(Dissect(Ref("w", t), 2, 0), 30)
            odd = evaluate(Dissect(Ref("w", t), 2, 1), 30)
            rebuilt = [0] * 60
            rebuilt[0::2] = even.coeffs
            rebuilt[1::2] = odd.coeffs
            assert tuple(rebuilt) == w.coeffs

    def test_three_dissection_rebuilds_a(self):
        a = build("a", 60)
        parts = [evaluate(Dissect(Ref("a"), 3, r), 20) for r in range(3)]
        rebuilt = [0] * 60
        for r, part in enumerate(parts):
            rebuilt[r::3] = part.coeffs
        assert tuple(rebuilt) == a.coeffs

    def test_w3_three_dissection_rebuilds(self):
        w3 = build("w", 60, 3)
        parts = [evaluate(Dissect(Ref("w", 3), 3, r), 20) for r in range(3)]
        rebuilt = [0] * 60
        for r, part in enumerate(parts):
            rebuilt[r::3] = part.coeffs
        assert tuple(rebuilt) == w3.coeffs


def _catalog_moduli() -> dict:
    """(series, t) -> the moduli its congruence sweeps are checked at."""
    moduli = {}
    for spec in congruence_catalog():
        if spec.modulus is not None:
            moduli.setdefault((spec.series, spec.param), set()).add(spec.modulus)
    return moduli


class TestModularRoute:
    @pytest.mark.parametrize("series, t, moduli", [
        pytest.param(s, t, sorted(m), id=f"{s}{t}")
        for (s, t), m in sorted(_catalog_moduli().items())])
    def test_reduced_build_equals_reduced_integer_build(self, monkeypatch, series, t,
                                                        moduli):
        # every (series, t, modulus) of the congruence catalog, at 2000
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})
        integer = build(series, 2000, t)
        for m in moduli:
            reduced = build(series, 2000, t, m)
            assert reduced.modulus == m
            assert reduced.coeffs == tuple(c % m for c in integer.coeffs)

    @pytest.mark.parametrize("side", [side for e in catalog() for side in (e.lhs, e.rhs)],
                             ids=[f"{e.id}-{s}" for e in catalog() for s in ("lhs", "rhs")])
    def test_every_catalog_side_evaluates_to_its_reduced_integer_value(self, side):
        integer = evaluate(side, 60)
        for m in (3, 5, 7):
            reduced = evaluate(side, 60, m)
            assert reduced.modulus == m
            assert reduced.coeffs == tuple(c % m for c in integer.coeffs)

    def test_cache_keeps_reduced_and_integer_builds_apart(self, monkeypatch):
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})
        integer = build("w", 50, 2)
        assert build("w", 50, 2, 7).coeffs == tuple(c % 7 for c in integer.coeffs)
        assert build("w", 50, 2).coeffs == integer.coeffs
        assert set(theta._BUILD_CACHE) == {("w", 2), ("w", 2, 7)}


class TestNoMultiplicationByOne:
    def test_no_product_has_a_one_operand(self, monkeypatch):
        # the series themselves are kept, so no id is reused while compared
        ones, operands = [], []
        one, mul = QSeries.one.__func__, QSeries.__mul__

        def recording_one(cls, *args):
            ones.append(one(cls, *args))
            return ones[-1]

        def recording_mul(a, b):
            operands.extend((a, b))
            return mul(a, b)

        monkeypatch.setattr(QSeries, "one", classmethod(recording_one))
        monkeypatch.setattr(QSeries, "__mul__", recording_mul)
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})
        build("w", 300, 4)
        evaluate(theta.Mul((Ref("psi"), Pow(Ref("phi_neg"), 2), Ref("w", 4))), 300)
        assert operands
        assert {id(s) for s in ones}.isdisjoint(id(s) for s in operands)
