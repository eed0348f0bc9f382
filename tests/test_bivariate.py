import pytest

from helpers import kim_star_spec, specialize_z_one
from qdissect.bivariate import BivariateSeries
from qdissect.combinatorics import (
    multirank_spec,
    series_counts,
    vector_crank_spec,
)
from qdissect.products import expand_bivariate
from qdissect.series import QSeries


def crank_carrier(precision):
    return expand_bivariate(kim_star_spec(), precision)


class TestAccessors:
    def test_coefficient_and_default_zero(self):
        s = BivariateSeries(({0: 1}, {1: 2, -1: 2}))
        assert s.coefficient(1, 1) == 2
        assert s.coefficient(1, 5) == 0

    def test_index_guards(self):
        s = BivariateSeries(({0: 1},))
        with pytest.raises(IndexError):
            s.coefficient(1, 0)
        with pytest.raises(IndexError):
            s.z_coefficients(-1)

    def test_precision(self):
        assert BivariateSeries(()).precision == 0
        assert crank_carrier(7).precision == 7


class TestSpecializations:
    def test_specialize_z_one_of_crank_carrier(self):
        # f1/((zq;q)(q/z;q)) at z = 1 is the partition generating function
        got = specialize_z_one(crank_carrier(8))
        assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 15)

    def test_kim_weighting_at_one(self):
        # coefficient of q^1 is z + 1/z - 1
        assert crank_carrier(2).z_coefficients(1) == {1: 1, -1: 1, 0: -1}

    def test_bucket_sums_equal_specialization(self):
        s = expand_bivariate(vector_crank_spec(), 12)
        total = specialize_z_one(s)
        for m in (1, 2, 5, 7):
            buckets = s.residue_buckets(m)
            summed = buckets[0]
            for b in buckets[1:]:
                summed = summed + b
            assert summed.coeffs == total.coeffs

    def test_bucket_modulus_guard(self):
        with pytest.raises(ValueError):
            crank_carrier(3).residue_buckets(0)

    def test_buckets_are_qseries(self):
        buckets = crank_carrier(4).residue_buckets(3)
        assert len(buckets) == 3
        assert all(isinstance(b, QSeries) and b.precision == 4 for b in buckets)


class TestSymmetry:
    def test_rank_and_crank_carriers_are_symmetric(self):
        assert expand_bivariate(multirank_spec(4), 10).is_z_symmetric()
        assert expand_bivariate(vector_crank_spec(), 10).is_z_symmetric()
        assert crank_carrier(10).is_z_symmetric()

    def test_asymmetric_detected(self):
        assert not BivariateSeries(({0: 1}, {1: 1})).is_z_symmetric()


class TestFoldedSeries:
    def test_fold_is_recorded(self):
        assert series_counts("V", 4, 12, z_mod=5).z_mod == 5
        assert series_counts("V", 4, 12).z_mod is None

    def test_buckets_only_modulo_a_divisor_of_the_fold(self):
        folded = series_counts("V", 4, 12, z_mod=5)
        with pytest.raises(ValueError):
            folded.residue_buckets(3)
        full = series_counts("V", 4, 12)
        for m in (1, 5):
            assert folded.residue_buckets(m) == full.residue_buckets(m)
        assert full.residue_buckets(3)[0].coeffs[:4] == (1, 0, 3, 8)

    def test_folded_symmetry(self):
        assert series_counts("V", 4, 12, z_mod=5).is_z_symmetric()
        assert series_counts("W2", None, 12, z_mod=7).is_z_symmetric()
        assert not BivariateSeries(({0: 1}, {1: 1}), z_mod=5).is_z_symmetric()
        assert BivariateSeries(({0: 1}, {1: 1, 4: 1}), z_mod=5).is_z_symmetric()

    def test_folded_coefficient_reads_the_residue(self):
        folded = series_counts("W2", None, 12, z_mod=7)
        full = series_counts("W2", None, 12)
        for n in range(12):
            assert folded.coefficient(n, -1) == folded.coefficient(n, 6)
            assert folded.coefficient(n, -1) == sum(
                c for e, c in full.z_coefficients(n).items() if e % 7 == 6)
