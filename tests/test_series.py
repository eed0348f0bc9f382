from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdissect import series
from qdissect.series import (
    _PACKED_CUTOFF,
    NonUnitError,
    QSeries,
    _array_code,
    _convolve,
    _convolve_packed,
    _convolve_schoolbook,
    _pack,
    _pack_signed,
    _unpack,
    cube_terms,
    divide_by_eta,
    equal_upto,
    pentagonal_sum,
    pentagonal_terms,
    pochhammer_series,
)

small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=12).map(
    lambda c: QSeries(tuple(c))
)

# digit widths in bytes: one per array item size, then wide lanes
WIDTH_CLASSES = {"1": (1, 1), "2": (2, 2), "3": (3, 3), "4": (4, 4), "5-8": (5, 8),
                 "9-16": (9, 16), "over-16": (17, 40)}


@st.composite
def operands_of_width(draw, lo, hi, signed):
    """Operands whose exact bound B = min(len a, len b) * max|a| * max|b|
    takes digits of lo..hi bytes: B has t - 2 to t bits, where t = 8w - 1
    for signed operands (one sign bit) and 8w for residues."""
    t = 8 * draw(st.integers(lo, hi)) - signed
    n_bits = draw(st.integers(1, min(6, t - 2)))
    n = draw(st.integers(1 << n_bits - 1, (1 << n_bits) - 1))
    bits_a = draw(st.integers(1, t - n_bits - 1))
    bits_b = t - n_bits - bits_a

    def operand(bits, length, negative_top):
        top = draw(st.integers(1 << bits - 1, (1 << bits) - 1))
        low = -(1 << bits) + 1 if signed else 0
        values = draw(st.lists(st.integers(low, (1 << bits) - 1),
                               min_size=length - 1, max_size=length - 1))
        values.insert(draw(st.integers(0, length - 1)), -top if negative_top else top)
        return values

    a = operand(bits_a, n, signed)
    b = operand(bits_b, draw(st.integers(n, n + 20)), signed and draw(st.booleans()))
    return (a, b) if draw(st.booleans()) else (b, a)


# (B, n, max|a|, max|b|, signed, digit bytes): B = 2^k - 1 fills k bits
# exactly, and B = 2^k needs one more, on each side of a byte boundary and
# of the array and wide lanes
WORST_CASES = [
    (2 ** 8 - 1, 15, 17, 1, False, 1),
    (2 ** 8, 16, 4, 4, False, 2),
    (2 ** 16 - 1, 15, 17, 257, False, 2),
    (2 ** 16, 16, 64, 64, False, 3),
    (2 ** 24 - 1, 45, 91, 4097, False, 3),
    (2 ** 24, 64, 2 ** 9, 2 ** 9, False, 4),
    (2 ** 64 - 1, 255, 164737, 439125228929, False, 8),
    (2 ** 64, 256, 2 ** 28, 2 ** 28, False, 9),
    (2 ** 7 - 1, 1, 127, 1, True, 1),
    (2 ** 7, 2, 8, 8, True, 2),
    (2 ** 15 - 1, 7, 31, 151, True, 2),
    (2 ** 15, 8, 64, 64, True, 3),
    (2 ** 63 - 1, 49, 3124327, 60247241209, True, 8),
    (2 ** 63, 8, 2 ** 30, 2 ** 30, True, 9),
]


class TestPochhammer:
    def test_pentagonal_prefix(self):
        assert pochhammer_series(1, 1, 8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_constant_term(self):
        assert pochhammer_series(1, 2, 1).coeffs == (1,)

    def test_step_two(self):
        assert pochhammer_series(2, 2, 5).coeffs == (1, 0, -1, 0, -1)

    def test_zero_precision(self):
        assert pochhammer_series(1, 1, 0).precision == 0

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            pochhammer_series(0, 1, 4)

    def test_substituted_pentagonal(self):
        # (q^2; q^2) is the pentagonal series with q -> q^2
        base = pochhammer_series(1, 1, 10)
        assert (
            pochhammer_series(2, 2, 20).coeffs
            == base.substitute_power(2).coeffs
        )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_pentagonal_sum_equals_product(self, k):
        # the fast route for every eta factor against the product it replaces
        assert pentagonal_sum(1000, k).coeffs == pochhammer_series(k, k, 1000).coeffs

    @pytest.mark.parametrize("precision, k", [(6, 0), (6, -2), (-1, 1), (-2, 3)])
    def test_pentagonal_sum_rejects_bad_arguments(self, precision, k):
        with pytest.raises(ValueError):
            pentagonal_sum(precision, k)

    def test_pentagonal_terms(self):
        assert pentagonal_terms(16) == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1),
                                        (12, -1), (15, -1)]
        assert pentagonal_terms(15, 3) == [(0, 1), (3, -1), (6, -1)]
        assert pentagonal_terms(0) == []


class TestEulerDivision:
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    @pytest.mark.parametrize("times", [1, 2, 3, 4, 6, 7])
    def test_division_undoes_multiplication(self, k, times):
        g = pochhammer_series(2, 3, 200)
        divided = divide_by_eta(g, k, times)
        assert (divided * pentagonal_sum(200, k).power(times)).coeffs == g.coeffs

    def test_partition_numbers(self):
        assert divide_by_eta(QSeries.one(10), 1).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)

    def test_zero_times_and_short_series(self):
        g = QSeries((3, -1, 4))
        assert divide_by_eta(g, 2, 0).coeffs == g.coeffs
        assert divide_by_eta(g, 5).coeffs == g.coeffs
        assert divide_by_eta(QSeries(()), 1).coeffs == ()

    def test_keeps_the_modulus(self):
        g = pentagonal_sum(80, 2).power(5)
        reduced = divide_by_eta(QSeries(g.coeffs, 5), 1, 4)
        assert reduced.modulus == 5
        assert reduced.coeffs == tuple(c % 5 for c in divide_by_eta(g, 1, 4).coeffs)

    @pytest.mark.parametrize("args", [(-1, 1), (1, -1)])
    def test_rejects_bad_arguments(self, args):
        k, times = args
        with pytest.raises(ValueError):
            divide_by_eta(QSeries.one(5), k, times)

    @pytest.mark.parametrize("times, passes", [(0, 0), (2, 2), (3, 1), (7, 3), (14, 6)])
    def test_cube_passes_take_three_powers_each(self, monkeypatch, times, passes):
        divisors, original = [], series._divide_sparse

        def recording(h, terms):
            divisors.append(terms)
            original(h, terms)

        monkeypatch.setattr(series, "_divide_sparse", recording)
        divide_by_eta(pochhammer_series(2, 3, 60), 2, times)
        cubes = [cube_terms(60, 2)[1:]] * (times // 3)
        assert divisors == cubes + [pentagonal_terms(60, 2)[1:]] * (times % 3)
        assert len(divisors) == passes

    @pytest.mark.parametrize("times", [0, 1, 2, 3, 4, 7])
    def test_rejects_k_zero_for_every_times(self, times):
        with pytest.raises(ValueError):
            divide_by_eta(QSeries.one(5), 0, times)

    @given(k=st.integers(1, 6), times=st.integers(0, 8), precision=st.integers(0, 60),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_multiplication_and_newton(self, k, times, precision, data):
        g = QSeries(tuple(data.draw(st.lists(
            st.integers(-(2**200), 2**200), min_size=precision, max_size=precision))))
        divisor = pentagonal_sum(precision, k).power(times)
        h = divide_by_eta(g, k, times)
        assert (h * divisor).coeffs == g.coeffs
        assert h.coeffs == (g * divisor.inverse()).coeffs

    @given(k=st.integers(1, 6), times=st.integers(0, 8), modulus=st.integers(2, 10**6),
           precision=st.integers(0, 60), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_newton_mod_m(self, k, times, modulus, precision, data):
        g = QSeries(tuple(data.draw(st.lists(
            st.integers(0, modulus - 1), min_size=precision, max_size=precision))), modulus)
        divisor = QSeries(pentagonal_sum(precision, k).coeffs, modulus).power(times)
        h = divide_by_eta(g, k, times)
        assert h.modulus == modulus
        assert (h * divisor).coeffs == g.coeffs
        assert h.coeffs == (g * divisor.inverse()).coeffs


class TestCubeTerms:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_match_the_product(self, k):
        cube = pochhammer_series(k, k, 300).power(3)
        terms = dict(cube_terms(300, k))
        assert cube.coeffs == tuple(terms.get(n, 0) for n in range(300))

    def test_exponents_stop_below_precision(self):
        assert cube_terms(0) == []
        assert cube_terms(7) == [(0, 1), (1, -3), (3, 5), (6, -7)]
        assert cube_terms(6) == [(0, 1), (1, -3), (3, 5)]

    @pytest.mark.parametrize("args", [(10, 0), (10, -2), (-1, 1)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            cube_terms(*args)


class TestArithmetic:
    def test_jacobi_cube_prefix(self):
        cube = pochhammer_series(1, 1, 7).power(3)
        assert cube.coeffs == (1, -3, 0, 5, 0, 0, -7)

    def test_inverse_gives_partition_numbers(self):
        inv = pochhammer_series(1, 1, 6).inverse()
        assert inv.coeffs == (1, 1, 2, 3, 5, 7)

    def test_mul_inverse_is_one(self):
        s = pochhammer_series(1, 1, 30)
        assert (s * s.inverse()).coeffs == QSeries.one(30).coeffs

    def test_inverse_requires_unit(self):
        with pytest.raises(NonUnitError):
            QSeries((2, 1, 1)).inverse()

    def test_negative_power(self):
        s = pochhammer_series(1, 1, 12)
        assert s.power(-2).coeffs == s.power(2).inverse().coeffs

    def test_power_zero(self):
        s = QSeries((1, 5, 5))
        assert s.power(0).coeffs == (1, 0, 0)

    def test_precision_is_min(self):
        a, b = QSeries((1, 2, 3)), QSeries((1, 1))
        assert (a * b).precision == 2
        assert (a + b).precision == 2
        assert (a - b).precision == 2

    def test_getitem_guards_precision(self):
        s = QSeries((1, 2))
        with pytest.raises(IndexError):
            s[2]

    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a + b).coeffs == (b + a).coeffs

    @given(small_series)
    @settings(max_examples=30, deadline=None)
    def test_additive_inverse(self, a):
        assert (a - a).coeffs == (0,) * a.precision
        assert (-(-a)).coeffs == a.coeffs


class TestConvolutionRoutes:
    @given(
        st.lists(st.integers(-(10 ** 25), 10 ** 25), min_size=50, max_size=90),
        st.lists(st.integers(-(10 ** 25), 10 ** 25), min_size=50, max_size=90),
    )
    @settings(max_examples=25, deadline=None)
    def test_packed_matches_schoolbook(self, a, b):
        n = min(len(a), len(b))
        assert _convolve_packed(a, b, n) == _convolve_schoolbook(a, b, n)

    @given(data=st.data(), width=st.integers(1, 17))
    @settings(max_examples=150, deadline=None)
    def test_unpack_inverts_signed_packing(self, data, width):
        bound = 1 << (8 * width - 1)
        digits = data.draw(st.lists(st.integers(-bound + 1, bound - 1), min_size=1,
                                    max_size=20))
        assert _unpack(_pack_signed(digits, width), len(digits), width) == digits

    @given(data=st.data(), width=st.integers(1, 17))
    @settings(max_examples=150, deadline=None)
    def test_unpack_inverts_unsigned_packing(self, data, width):
        digits = data.draw(st.lists(st.integers(0, (1 << 8 * width) - 1), min_size=1,
                                    max_size=20))
        packed = _pack(digits, width)
        assert packed == sum(d << 8 * width * i for i, d in enumerate(digits))
        assert _unpack(packed, len(digits), width, signed=False) == digits

    @pytest.mark.parametrize("width", range(1, 10))
    def test_array_lanes_are_the_smallest_that_fit(self, width):
        code = _array_code(width)
        sizes = [array(c).itemsize for c in "BHILQ"]
        if width > max(sizes):
            assert code is None  # one to_bytes per value instead
        else:
            assert array(code).itemsize == min(s for s in sizes if s >= width)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_unpack_reads_the_lowest_lanes_of_any_sign(self, count):
        # digits above count are dropped whatever their sign, and missing
        # digits read as zero
        low = [5, -7, 0][:count]
        for high in (0, 1, -1, 1 << 200, -(1 << 200)):
            x = _pack_signed(low, 2) + (high << 16 * count)
            assert _unpack(x, count, 2) == low
            assert _unpack(x, count + 2, 2)[:count] == low

    @pytest.mark.parametrize("lo, hi", WIDTH_CLASSES.values(), ids=WIDTH_CLASSES.keys())
    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "residues"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_packed_matches_schoolbook_in_every_width_class(self, lo, hi, signed, data):
        a, b = data.draw(operands_of_width(lo, hi, signed))
        bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
        assert lo <= (bound.bit_length() + signed + 7) // 8 <= hi  # the class is hit
        assert (min(a + b) < 0) == signed
        full = len(a) + len(b) - 1
        out_len = data.draw(st.sampled_from([1, full // 2, full - 1, full, full + 3]))
        assert _convolve_packed(a, b, out_len) == _convolve_schoolbook(a, b, out_len)

    @pytest.mark.parametrize("bound, n, top_a, top_b, signed, width, sign", [
        case + (sign,) for case in WORST_CASES for sign in ((1, -1) if case[4] else (1,))])
    def test_worst_case_digits_are_exactly_wide_enough(self, monkeypatch, bound, n,
                                                       top_a, top_b, signed, width,
                                                       sign):
        # every coefficient at the maximum: the middle coefficient of the
        # product is +-B itself, and the digits are as narrow as B allows
        assert n * top_a * top_b == bound
        a, b = [sign * top_a] * n, [top_b] * n
        if signed and sign > 0:
            a.append(-1)  # signed, with the same B: a[n] meets no b[j] at n - 1
        widths = []
        unpack = series._unpack

        def recording_unpack(x, count, w, signed=True):
            widths.append(w)
            return unpack(x, count, w, signed)

        monkeypatch.setattr(series, "_unpack", recording_unpack)
        for out_len in (n - 1, n, 2 * n - 1, 2 * n + 2):
            got = _convolve_packed(a, b, out_len)
            assert got == _convolve_schoolbook(a, b, out_len)
        assert got[n - 1] == sign * bound
        assert set(widths) == {width}

    def test_packed_zero_operand(self):
        assert _convolve_packed([0] * 60, [1] * 60, 60) == [0] * 60

    @pytest.mark.parametrize("sizes", [(1, _PACKED_CUTOFF - 1), (_PACKED_CUTOFF, 90)],
                             ids=["schoolbook", "packed"])
    @given(data=st.data(), modulus=st.integers(2, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_reduced_matches_integer_route(self, sizes, data, modulus):
        # the mod-M route against the integer route it replaces
        lo, hi = sizes
        operand = st.lists(st.integers(-(10 ** 12), 10 ** 12), min_size=lo, max_size=hi)
        a, b = data.draw(operand), data.draw(operand)
        n = min(len(a), len(b))
        assert _convolve(a, b, n, modulus) == [v % modulus for v in _convolve(a, b, n)]

    def test_nonnegative_operands_pack_once(self, monkeypatch):
        packed = []
        pack = series._pack

        def recording_pack(values, width):
            packed.append(list(values))
            return pack(values, width)

        monkeypatch.setattr(series, "_pack", recording_pack)
        a, b = [3, 0, 4] * 20, [1, -2, 0] * 20
        assert _convolve_packed(a, b, 60) == _convolve_schoolbook(a, b, 60)
        # a once; b by its positive and its negative part
        assert packed == [a, [1, 0, 0] * 20, [0, 2, 0] * 20]

    @pytest.mark.parametrize("modulus", [7, None], ids=["residues", "signed"])
    def test_square_packs_once(self, monkeypatch, modulus):
        # s * s hands _convolve one tuple twice (a full slice of a tuple is
        # the tuple itself), which is packed once and squared
        packed = []
        pack = series._pack

        def recording_pack(values, width):
            packed.append(list(values))
            return pack(values, width)

        monkeypatch.setattr(series, "_pack", recording_pack)
        s = QSeries(tuple(range(-30, 30)), modulus)
        want = _convolve_schoolbook(s.coeffs, s.coeffs, 60)
        if modulus:
            want = [v % modulus for v in want]
        assert list((s * s).coeffs) == want
        if modulus:
            assert packed == [list(s.coeffs)]
        else:  # by its positive and its negative part, once each
            assert packed == [[max(v, 0) for v in s.coeffs], [max(-v, 0) for v in s.coeffs]]


class TestReducedSeries:
    def test_every_product_mod_m_is_unsigned(self, monkeypatch):
        # every operand on the mod-M route is a residue, Newton's correction
        # term 2 - fg included, so no product packs a negative part
        s = QSeries(pochhammer_series(1, 1, 300).power(-3).coeffs, 5)
        nonnegative = []
        convolve_packed = series._convolve_packed

        def recording(a, b, n):
            nonnegative.append(min(a) >= 0 and min(b) >= 0)
            return convolve_packed(a, b, n)

        monkeypatch.setattr(series, "_convolve_packed", recording)
        assert (s.inverse() * s.power(2)).coeffs == s.coeffs
        assert len(nonnegative) >= 10 and all(nonnegative)

    def test_product_is_reduced_once(self, monkeypatch):
        reductions = []
        convolve = series._convolve

        def recording_convolve(a, b, n, modulus=None):
            reductions.append(modulus)
            return convolve(a, b, n, modulus)

        monkeypatch.setattr(series, "_convolve", recording_convolve)
        a = QSeries(tuple(range(60)), 7)
        want = tuple(v % 7 for v in _convolve_schoolbook(a.coeffs, a.coeffs, 60))
        assert (a * a).coeffs == want
        assert reductions == [None]

    def test_coefficients_are_reduced(self):
        s = QSeries((7, -1, 12, 0), 5)
        assert s.coeffs == (2, 4, 2, 0)
        assert (-s).coeffs == (3, 1, 3, 0)
        assert s.scale(3).coeffs == (1, 2, 1, 0)

    def test_modulus_below_two_is_rejected(self):
        with pytest.raises(ValueError):
            QSeries((1, 2), 1)

    @pytest.mark.parametrize("modulus", [2, 5, 7, 729])
    @pytest.mark.parametrize("c0", ["one", "minus one"])
    def test_inverse_times_series_is_one(self, modulus, c0):
        coeffs = pochhammer_series(1, 1, 200).power(-3).coeffs
        s = QSeries(coeffs, modulus)
        if c0 == "minus one":
            s = s.scale(-1)
            assert s[0] == modulus - 1
        assert (s.inverse() * s).coeffs == QSeries.one(200, modulus).coeffs

    def test_inverse_is_the_reduced_integer_inverse(self):
        s = pochhammer_series(1, 1, 300).power(5)
        reduced = QSeries(s.inverse().coeffs, 11)
        assert QSeries(s.coeffs, 11).inverse().coeffs == reduced.coeffs

    def test_inverse_requires_unit_mod_m(self):
        with pytest.raises(NonUnitError):
            QSeries((2, 1, 1), 5).inverse()

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("other", [7, None])
    def test_mixing_moduli_raises(self, op, other):
        a, b = QSeries((1, 2, 3), 5), QSeries((1, 1, 1), other)
        with pytest.raises(ValueError, match="cannot combine"):
            getattr(a, f"__{op}__")(b)
        with pytest.raises(ValueError, match="cannot combine"):
            getattr(b, f"__{op}__")(a)

    def test_structural_ops_keep_the_modulus(self):
        s = QSeries((1, 2, 3, 4), 5)
        for t in (s.shift(1), s.truncate(2), s.dissect(2, 1), s.substitute_power(2),
                  s.power(3), s.power(-1), QSeries.one(3, 5)):
            assert t.modulus == 5


class TestStructuralOps:
    def test_substitute_power(self):
        assert QSeries((1, -1)).substitute_power(3).coeffs == (1, 0, 0, -1, 0, 0)

    def test_substitute_identity(self):
        one = QSeries.one(4)
        assert one.substitute_power(5).coeffs[:4] == one.coeffs

    def test_substitute_rejects_zero(self):
        with pytest.raises(ValueError):
            QSeries((1,)).substitute_power(0)

    def test_dissect_definition(self):
        s = QSeries((10, 11, 12, 13))
        assert s.dissect(2, 1).coeffs == (11, 13)
        assert s.dissect(2, 0).coeffs == (10, 12)

    def test_dissect_precision_formula(self):
        for precision in range(12):
            s = QSeries.zero(precision)
            for m in range(1, 5):
                for r in range(m):
                    expected = max(0, -(-(precision - r) // m))
                    assert s.dissect(m, r).precision == expected

    def test_dissect_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            QSeries((1, 2)).dissect(2, 2)

    def test_shift_gains_precision(self):
        s = QSeries((1, 2))
        assert s.shift(2).coeffs == (0, 0, 1, 2)

    @pytest.mark.parametrize("modulus", [None, 5])
    def test_truncate_to_full_length_is_the_series_itself(self, modulus):
        s = QSeries((1, -2, 3, 9), modulus)
        assert s.truncate(4) is s
        assert [s.truncate(n) for n in range(4)] == [
            QSeries(s.coeffs[:n], modulus) for n in range(4)]
        with pytest.raises(ValueError):
            s.truncate(5)


class TestEqualUpto:
    def test_reflexive(self):
        s = pochhammer_series(1, 1, 20)
        assert equal_upto(s, s, 20).equal

    def test_reports_first_mismatch(self):
        cmp = equal_upto(QSeries((1, 2, 3)), QSeries((1, 5, 3)), 3)
        assert not cmp.equal
        assert (cmp.index, cmp.left, cmp.right) == (1, 2, 5)

    def test_residues_compare_exactly(self):
        assert equal_upto(QSeries((1, 9), 7), QSeries((1, 2), 7), 2).equal
        cmp = equal_upto(QSeries((1, 9), 7), QSeries((1, 3), 7), 2)
        assert (cmp.equal, cmp.index, cmp.left, cmp.right) == (False, 1, 2, 3)

    @pytest.mark.parametrize("moduli", [(7, None), (None, 7), (3, 7)])
    def test_mixed_moduli_are_an_error(self, moduli):
        with pytest.raises(ValueError):
            equal_upto(QSeries((1, 2), moduli[0]), QSeries((1, 2), moduli[1]), 2)

    def test_unknown_coefficients_are_an_error(self):
        with pytest.raises(ValueError):
            equal_upto(QSeries((1,)), QSeries((1, 2)), 2)

    def test_zero_length_compare(self):
        assert equal_upto(QSeries(()), QSeries(()), 0).equal
