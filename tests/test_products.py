import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import kim_star_spec, specialize_z_one
from qdissect import theta
from qdissect.bivariate import BivariateSeries
from qdissect.combinatorics import multirank_spec, vector_crank_spec
from qdissect.products import (
    Factor,
    ProductSpec,
    _lane_width,
    _mirror_pairs,
    eta_quotient,
    expand,
    expand_bivariate,
    expand_univariate,
    f,
)
from qdissect.series import (QSeries, _convolve_schoolbook, _unpack, pentagonal_sum,
                             pochhammer_series, product)

W4 = eta_quotient({2: 5, 1: -4, 4: -2})
W2 = eta_quotient({2: 3, 1: -4})


class TestSpecValidation:
    def test_factor_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            Factor(0, 1)
        with pytest.raises(ValueError):
            Factor(-1, 2)

    def test_factor_rejects_zero_step(self):
        with pytest.raises(ValueError):
            Factor(1, 0)

    def test_factor_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Factor(1, 1, 0)

    def test_spec_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            ProductSpec((f(1),), q_shift=-1)

    def test_eta_quotient_drops_zero_powers(self):
        assert eta_quotient({1: 2, 3: 0}).factors == (f(1, 2),)

    def test_is_univariate(self):
        assert W4.is_univariate
        assert not ProductSpec((Factor(1, 1, -1, z_exp=1),)).is_univariate


def newton_route(spec, precision):
    """The integer route the Euler division replaced: the numerator times
    the Newton inverse of the denominator's product."""
    def powers(sign):
        return [pentagonal_sum(precision, fac.q_step).power(sign * fac.exponent)
                for fac in spec.factors if sign * fac.exponent > 0]
    return product(powers(1), precision) * product(powers(-1), precision).inverse()


class TestUnivariateExpansion:
    def test_w4_prefix(self):
        assert expand_univariate(W4, 6).coeffs == (1, 4, 9, 20, 42, 80)

    def test_w2_prefix(self):
        assert expand_univariate(W2, 5).coeffs == (1, 4, 11, 28, 63)

    def test_empty_product_is_one(self):
        assert expand_univariate(ProductSpec(()), 4).coeffs == (1, 0, 0, 0)

    def test_scalar_and_shift(self):
        spec = eta_quotient({1: 1}, scalar=-3, q_shift=2)
        got = expand_univariate(spec, 6)
        want = pochhammer_series(1, 1, 4).scale(-3).shift(2)
        assert got.coeffs == want.coeffs

    def test_prefix_stability(self):
        short = expand_univariate(W4, 20)
        long = expand_univariate(W4, 50)
        assert long.coeffs[:20] == short.coeffs

    def test_zero_precision(self):
        assert expand_univariate(W4, 0).precision == 0

    def test_rejects_bivariate_spec(self):
        with pytest.raises(ValueError):
            expand_univariate(ProductSpec((Factor(1, 1, 1, z_exp=1),)), 4)

    def test_matches_direct_pochhammer_arithmetic(self):
        # f2^3 / f1^4 recomputed without the product layer
        f1 = pochhammer_series(1, 1, 30)
        f2 = pochhammer_series(2, 2, 30)
        want = f2.power(3) * f1.power(-4)
        assert expand_univariate(W2, 30).coeffs == want.coeffs

    @pytest.mark.parametrize("name, param", [(name, None) for name in sorted(theta._FIXED_ETA)]
                             + [(name, t) for name in ("w", "c") for t in range(1, 11)])
    def test_named_eta_quotients_match_pochhammer_products(self, name, param):
        # eta factors are expanded by the pentagonal sum and divided out by
        # Euler's recurrence; rebuild each named quotient from Pochhammer
        # products alone, and by the Newton route the division replaced
        spec = theta.series_spec(name, param)
        want = QSeries.one(600)
        for fac in spec.factors:
            want = want * pochhammer_series(fac.q_offset, fac.q_step, 600).power(fac.exponent)
        got = expand_univariate(spec, 600).coeffs
        assert got == want.coeffs
        assert got == newton_route(spec, 600).coeffs


class TestEulerDivision:
    @given(powers=st.dictionaries(st.integers(1, 8), st.integers(-6, 6), max_size=4),
           precision=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_random_eta_quotients_match_the_newton_route(self, powers, precision):
        spec = eta_quotient(powers)
        assert expand_univariate(spec, precision).coeffs == newton_route(spec, precision).coeffs

    @pytest.fixture
    def inverse_calls(self, monkeypatch):
        calls = []
        inverse = QSeries.inverse

        def counting_inverse(s):
            calls.append(s.precision)
            return inverse(s)

        monkeypatch.setattr(QSeries, "inverse", counting_inverse)
        monkeypatch.setattr(theta, "_BUILD_CACHE", {})
        return calls

    def test_integer_eta_builds_invert_nothing(self, inverse_calls):
        for name in sorted(theta._FIXED_ETA):
            theta.build(name, 300)
        for t in range(1, 11):
            theta.build("w", 300, t)
            theta.build("c", 300, t)
        assert inverse_calls == []

    @pytest.mark.parametrize("route", ["x", "w4-frobenius", "mod 5"])
    def test_other_routes_still_invert(self, inverse_calls, route):
        if route == "x":
            theta.build("x", 300)
        elif route == "mod 5":
            theta.build("w", 300, 1, 5)
        else:
            theta.evaluate(theta.catalog_entry(route).rhs, 300)
        assert inverse_calls


class TestBivariateExpansion:
    def test_z_free_spec_matches_univariate(self):
        uni = expand_univariate(W2, 15)
        biv = expand_bivariate(W2, 15)
        assert specialize_z_one(biv).coeffs == uni.coeffs
        assert all(set(row) <= {0} for row in biv.rows)

    def test_single_inverse_factor(self):
        # 1 / (zq; q) counts partitions by number of parts
        spec = ProductSpec((Factor(1, 1, -1, z_exp=1),))
        biv = expand_bivariate(spec, 5)
        assert biv.z_coefficients(0) == {0: 1}
        assert biv.z_coefficients(3) == {1: 1, 2: 1, 3: 1}
        assert biv.z_coefficients(4) == {1: 1, 2: 2, 3: 1, 4: 1}

    def test_positive_factor_signs(self):
        # (zq; q) has coefficient (-z)^k q^{k(k+1)/2} ...
        spec = ProductSpec((Factor(1, 1, 1, z_exp=1),))
        biv = expand_bivariate(spec, 4)
        assert biv.z_coefficients(1) == {1: -1}
        assert biv.z_coefficients(3) == {1: -1, 2: 1}

    def test_z_mod_reduction_preserves_buckets(self):
        spec = ProductSpec((
            Factor(2, 2, 1),
            Factor(1, 2, -1, z_exp=1),
            Factor(1, 2, -1, z_exp=-1),
            Factor(1, 2, -1, z_exp=2),
            Factor(1, 2, -1, z_exp=-2),
            Factor(4, 4, -1, z_exp=2),
            Factor(4, 4, -1, z_exp=-2),
        ))
        full = expand_bivariate(spec, 12)
        reduced = expand_bivariate(spec, 12, z_mod=5)
        for fb, rb in zip(full.residue_buckets(5), reduced.residue_buckets(5)):
            assert fb.coeffs == rb.coeffs

    def test_dispatcher_types(self):
        assert isinstance(expand(W4, 5), QSeries)
        assert isinstance(expand(W4, 5, z_mod=3), BivariateSeries)
        spec = ProductSpec((Factor(1, 1, -1, z_exp=1),))
        assert isinstance(expand(spec, 5), BivariateSeries)


def dict_route(spec, precision, z_mod=None):
    """The reference the packed z-lanes replaced: every row a dict from
    z-exponent to coefficient, updated entry by entry, one factor
    (1 - z^e q^k) at a time.  Returns the rows of nonzero entries."""
    rows = [dict() for _ in range(precision)]

    def reduce_exp(e):
        return e % z_mod if z_mod else e

    if spec.q_shift < precision:
        rows[spec.q_shift][reduce_exp(spec.z_shift)] = spec.scalar
    for fac in spec.factors:
        for _ in range(abs(fac.exponent)):
            for k in range(fac.q_offset, precision, fac.q_step):
                # multiply: descending keeps the source rows untouched until
                # they are consumed; divide: the ascending geometric recurrence
                degrees = (range(precision - 1, k - 1, -1) if fac.exponent > 0
                           else range(k, precision))
                sign = -1 if fac.exponent > 0 else 1
                for n in degrees:
                    target = rows[n]
                    for e, c in rows[n - k].items():
                        e2 = reduce_exp(e + fac.z_exp)
                        target[e2] = target.get(e2, 0) + sign * c
    return tuple({e: c for e, c in row.items() if c} for row in rows)


def rotation_route(spec, precision, z_mod=None):
    """The packed z-lanes before the theta pairing: every z-factor applied
    as its factors (1 - z^e q^k), one lane rotation per row update."""
    n = precision - spec.q_shift
    if n <= 0:
        return tuple({} for _ in range(precision))
    z_factors = [fac for fac in spec.factors if fac.z_exp]
    reach = abs(spec.z_shift) + max(
        (abs(fac.z_exp) * (n - 1) // fac.q_offset for fac in z_factors), default=0)
    m = z_mod or 2 * reach + 1
    width = (_lane_width(spec, n) + 8) // 8
    bits = 8 * width
    ring = (1 << m * bits) - 1
    z_free = expand_univariate(
        ProductSpec(tuple(fac for fac in spec.factors if not fac.z_exp), spec.scalar), n)
    rows = [c << spec.z_shift % m * bits for c in z_free.coeffs]
    for fac in z_factors:
        left = fac.z_exp % m * bits
        right = m * bits - left
        for _ in range(abs(fac.exponent)):
            for k in range(fac.q_offset, n, fac.q_step):
                if fac.exponent < 0:
                    for i in range(k, n):
                        x = rows[i - k]
                        rows[i] += ((x << left) & ring) + (x >> right)
                else:
                    for i in range(n - 1, k - 1, -1):
                        x = rows[i - k]
                        rows[i] -= ((x << left) & ring) + (x >> right)
    half = ring >> 1
    lanes = (_unpack(r - ring if r > half else r, m, width)
             for r in (x % ring for x in rows))
    keys = range(m) if z_mod else [i if i <= reach else i - m for i in range(m)]
    return tuple([{} for _ in range(spec.q_shift)] + [
        {key: c for key, c in zip(keys, row) if c} for row in lanes])


factors = st.lists(st.builds(Factor, st.integers(1, 3), st.integers(1, 3),
                             st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-2, 3)),
                   max_size=4).map(tuple)
specs = st.builds(ProductSpec, factors, scalar=st.integers(-3, 3),
                  q_shift=st.integers(0, 3), z_shift=st.integers(-3, 3))
Z_MODS = [None, 1, 2, 3, 5, 7]


@st.composite
def mirrored_specs(draw):
    """Specs with one to three mirrored pairs (z^e q^a; q^b)^-k (z^-e q^a; q^b)^-k,
    b = a or 2a, shuffled among unpaired and positive factors."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, 2]),
                                    st.integers(-3, -1), st.integers(1, 3)),
                          min_size=1, max_size=3))
    mirrored = [Factor(a, step * a, k, sign * e)
                for a, step, k, e in pairs for sign in (1, -1)]
    others = list(draw(factors)[:2])
    return ProductSpec(tuple(draw(st.permutations(mirrored + others))),
                       scalar=draw(st.integers(-3, 3)), q_shift=draw(st.integers(0, 3)),
                       z_shift=draw(st.integers(-3, 3)))


STATISTIC_SPECS = ([(f"V_{t}", multirank_spec(t)) for t in range(1, 11)]
                   + [("W_2", vector_crank_spec()), ("kim", kim_star_spec())])

ONE_LANE_SPECS = STATISTIC_SPECS + [
    ("signed", ProductSpec((Factor(1, 1, 2, z_exp=1), Factor(1, 2, -3, z_exp=-2),
                            Factor(2, 3, -1, z_exp=3)), scalar=-2, z_shift=1))]


def whole_byte_precision(spec):
    """The least precision from 20 on at which the lanes of ``spec`` are
    whole bytes wide (V_4: 30, W_2: 21): there the sign bit is all that
    keeps the top bit of a lane free."""
    return next(p for p in itertools.count(20) if _lane_width(spec, p) % 8 == 0)


def per_lane_route(spec, precision, z_mod=None):
    """The structure the z-free start of the rows replaced: the z-factors
    expanded alone, then every lane multiplied by the z-free expansion
    (scalar included), one lane at a time."""
    z_part = ProductSpec(tuple(fac for fac in spec.factors if fac.z_exp),
                         q_shift=spec.q_shift, z_shift=spec.z_shift)
    z_free = expand_univariate(
        ProductSpec(tuple(fac for fac in spec.factors if not fac.z_exp), spec.scalar),
        precision)
    rows = expand_bivariate(z_part, precision, z_mod).rows
    lanes = {key: _convolve_schoolbook([row.get(key, 0) for row in rows],
                                       z_free.coeffs, precision)
             for key in set().union(*rows)}
    return tuple({key: lane[i] for key, lane in lanes.items() if lane[i]}
                 for i in range(precision))


class TestPackedLanes:
    @given(spec=specs, precision=st.integers(0, 30), z_mod=st.sampled_from(Z_MODS))
    @settings(max_examples=150, deadline=None)
    def test_random_specs_match_the_dict_route(self, spec, precision, z_mod):
        got = expand_bivariate(spec, precision, z_mod)
        assert got.rows == dict_route(spec, precision, z_mod)
        assert got.z_mod == z_mod

    @pytest.mark.parametrize("name, spec", STATISTIC_SPECS)
    @pytest.mark.parametrize("precision, z_mod", [(150, 5), (150, 7), (40, None)])
    def test_statistic_specs_match_the_dict_route(self, name, spec, precision, z_mod):
        assert expand_bivariate(spec, precision, z_mod).rows == dict_route(
            spec, precision, z_mod)

    @given(spec=mirrored_specs(), precision=st.integers(0, 30))
    @example(spec=ProductSpec((Factor(1, 1, -1, 1), Factor(1, 2, -1, -1),
                               Factor(1, 2, -1, 1), Factor(1, 1, -1, -1))), precision=20)
    @settings(max_examples=150, deadline=None)
    def test_mirrored_pairs_match_the_dict_route(self, spec, precision):
        assert _mirror_pairs([fac for fac in spec.factors if fac.z_exp])[0]
        for z_mod in Z_MODS:
            assert expand_bivariate(spec, precision, z_mod).rows == dict_route(
                spec, precision, z_mod)

    @pytest.mark.parametrize("name, spec", STATISTIC_SPECS)
    @pytest.mark.parametrize("precision, z_mod", [(405, 5), (425, 7), (100, None)])
    def test_statistic_specs_match_the_rotation_route(self, name, spec, precision,
                                                      z_mod):
        # the equidistribution checks' sizes and an unfolded one; every
        # z-factor of these specs pairs up
        assert expand_bivariate(spec, precision, z_mod).rows == rotation_route(
            spec, precision, z_mod)

    @given(spec=specs, precision=st.integers(0, 30), z_mod=st.sampled_from(Z_MODS))
    @settings(max_examples=100, deadline=None)
    def test_random_specs_match_the_per_lane_route(self, spec, precision, z_mod):
        assert expand_bivariate(spec, precision, z_mod).rows == per_lane_route(
            spec, precision, z_mod)

    @pytest.mark.parametrize("name, spec", STATISTIC_SPECS)
    @pytest.mark.parametrize("precision, z_mod", [(150, 5), (60, None)])
    def test_statistic_specs_match_the_per_lane_route(self, name, spec, precision,
                                                      z_mod):
        assert expand_bivariate(spec, precision, z_mod).rows == per_lane_route(
            spec, precision, z_mod)

    @pytest.mark.parametrize("name, spec, precision", [
        pytest.param(name, spec, 60, id=f"{name}-spec{i}")
        for i, (name, spec) in enumerate(ONE_LANE_SPECS)
    ] + [
        pytest.param(name, spec, whole_byte_precision(spec), id=f"{name}-whole-bytes")
        for name, spec in (("V_4", multirank_spec(4)), ("W_2", vector_crank_spec()))])
    def test_one_lane_is_the_specialization_at_z_one(self, name, spec, precision):
        # with one lane every z-division adds into it, so a division-only
        # spec fills the lane to the width bound itself
        folded = expand_bivariate(spec, precision, z_mod=1)
        want = specialize_z_one(expand_bivariate(spec, precision)).coeffs
        assert tuple(row.get(0, 0) for row in folded.rows) == want
        assert all(set(row) <= {0} for row in folded.rows)

    @given(factors=factors, scalar=st.integers(-3, 3).filter(bool),
           precision=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_lane_width_is_that_of_the_absolute_product(self, factors, scalar,
                                                        precision):
        # every factor 1 - z^e q^j (e = 0 too) taken as 1 + q^j, its
        # inverse as 1/(1 - q^j)
        absolute = [1] + [0] * (precision - 1)
        for fac in factors:
            for _ in range(abs(fac.exponent)):
                for j in range(fac.q_offset, precision, fac.q_step):
                    degrees = (range(precision - 1, j - 1, -1) if fac.exponent > 0
                               else range(j, precision))
                    for n in degrees:
                        absolute[n] += absolute[n - j]
        spec = ProductSpec(factors, scalar)
        assert _lane_width(spec, precision) == (abs(scalar) * max(absolute)).bit_length()

    @pytest.mark.parametrize("z_mod", [0, -3])
    def test_rejects_z_mod_below_one(self, z_mod):
        with pytest.raises(ValueError):
            expand_bivariate(multirank_spec(4), 10, z_mod=z_mod)

    def test_statistic_expansions_invert_nothing(self, monkeypatch):
        calls = []
        inverse = QSeries.inverse
        monkeypatch.setattr(QSeries, "inverse", lambda s: calls.append(s) or inverse(s))
        for _, spec in STATISTIC_SPECS:
            expand_bivariate(spec, 100, z_mod=5)
            expand_bivariate(spec, 30)
        assert calls == []
