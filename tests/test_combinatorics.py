import json
import sys
from collections import Counter
from itertools import product

import pytest

from helpers import kim_star_spec
from qdissect import combinatorics, theta
from qdissect.combinatorics import (
    ENUMERATION_LIMIT,
    ONE_DOUBLE_STAR,
    ONE_STAR,
    crank,
    enumerate_class,
    enumerate_vectors,
    parity_weighted_enumeration,
    partition_counts,
    partition_p,
    pentagonal_d,
    residue_classes,
    series_counts,
    star_crank,
    star_label,
    star_weight,
    statistic_distribution,
    vector_rows,
    weighted_count,
)
from qdissect.products import expand_bivariate

# The V_4 vectors of size 3: (weight, multirank) multiset, frozen.
V4_N3_MULTISET = Counter({
    (1, 1): 3, (1, -1): 3, (1, 2): 3, (1, -2): 3,
    (1, 0): 2, (1, 3): 2, (1, -3): 2,
    (1, 4): 1, (1, -4): 1, (1, 5): 1, (1, -5): 1, (1, 6): 1, (1, -6): 1,
    (-1, 1): 1, (-1, -1): 1, (-1, 2): 1, (-1, -2): 1,
})


class TestPartitionClasses:
    def test_ordinary(self):
        assert set(enumerate_class(4, "P")) == {
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        }

    def test_distinct_even(self):
        assert set(enumerate_class(6, "DE")) == {(6,), (4, 2)}
        assert enumerate_class(2, "DE") == ((2,),)
        assert enumerate_class(1, "DE") == ()

    def test_distinct_odd(self):
        assert set(enumerate_class(8, "DO")) == {(7, 1), (5, 3)}

    def test_odd_parts(self):
        assert set(enumerate_class(5, "O")) == {(5,), (3, 1, 1), (1, 1, 1, 1, 1)}

    @pytest.mark.parametrize("cls, keep", [
        ("O", lambda p: all(x % 2 for x in p)),
        ("DE", lambda p: len(set(p)) == len(p) and not any(x % 2 for x in p)),
        ("DO", lambda p: len(set(p)) == len(p) and all(x % 2 for x in p)),
    ])
    def test_class_is_filtered_ordinary_partitions(self, cls, keep):
        for n in range(16):
            want = tuple(p for p in enumerate_class(n, "P") if keep(p))
            assert enumerate_class(n, cls) == want, (cls, n)

    def test_empty_partition(self):
        for cls in ("P", "O", "DE", "DO", "PSTAR"):
            assert enumerate_class(0, cls) == ((),)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            enumerate_class(3, "X")
        with pytest.raises(ValueError):
            enumerate_class(-1, "P")


class TestCrank:
    def test_no_ones_gives_largest_part(self):
        assert crank((4,)) == 4
        assert crank((2, 2)) == 2

    def test_with_ones(self):
        assert crank((1,)) == -1
        assert crank((3, 1, 1)) == -1
        assert crank((4, 3, 1)) == 1
        assert crank((2, 1, 1)) == -2

    def test_empty(self):
        assert crank(()) == 0


class TestStarObjects:
    def test_three_objects_at_one(self):
        objs = enumerate_class(1, "PSTAR")
        assert objs == ((1,), ONE_STAR, ONE_DOUBLE_STAR)

    def test_overridden_statistics(self):
        assert (star_weight((1,)), star_crank((1,))) == (-1, 0)
        assert (star_weight(ONE_STAR), star_crank(ONE_STAR)) == (1, 1)
        assert (star_weight(ONE_DOUBLE_STAR), star_crank(ONE_DOUBLE_STAR)) == (1, -1)

    def test_larger_sizes_use_ordinary_crank(self):
        objs = enumerate_class(3, "PSTAR")
        assert objs == enumerate_class(3, "P")
        assert all(star_weight(o) == 1 for o in objs)

    def test_kim_identity(self):
        # weighted crank counts over P* match f1/((zq;q)(q/z;q)) coefficientwise
        gf = expand_bivariate(kim_star_spec(), 9)
        for n in range(9):
            dist = Counter()
            for obj in enumerate_class(n, "PSTAR"):
                dist[star_crank(obj)] += star_weight(obj)
            dist = {m: c for m, c in dist.items() if c}
            assert dist == gf.z_coefficients(n), f"n = {n}"


class TestVectorEnumeration:
    def test_v4_n3_table(self):
        vectors = enumerate_vectors("V", 4, 3)
        assert len(vectors) == 28
        assert Counter((v.weight, v.statistic) for v in vectors) == V4_N3_MULTISET

    def test_w2_n1_cranks(self):
        assert statistic_distribution("W2", None, 1) == {1: 1, -1: 1, 2: 1, -2: 1}

    def test_totals_match_w(self):
        for family, t in (("V", 1), ("V", 4), ("W2", None)):
            w_param = t if family == "V" else 2
            w = theta.build("w", 7, w_param)
            for n in range(7):
                assert weighted_count(family, t, n) == w[n], (family, t, n)

    def test_distribution_matches_gf(self):
        for family, t in (("V", 2), ("W2", None)):
            gf = series_counts(family, t, 7)
            for n in range(7):
                assert statistic_distribution(family, t, n) == gf.z_coefficients(n)

    def test_weighted_count_by_residue(self):
        dist = statistic_distribution("V", 4, 3)
        for k in range(5):
            want = sum(c for m, c in dist.items() if (m - k) % 5 == 0)
            assert weighted_count("V", 4, 3, k=k, modulus=5) == want == 4

    def test_rank_coefficient_variant_keeps_totals(self):
        for h in (1, 3):
            dist = statistic_distribution("V", 4, 3, rank_coefficient=h)
            assert sum(dist.values()) == 20

    def test_guardrail(self):
        with pytest.raises(ValueError):
            enumerate_vectors("V", 1, ENUMERATION_LIMIT + 1)
        with pytest.raises(ValueError):
            statistic_distribution("W2", None, 999)
        for family, t, n in (("V", 1, ENUMERATION_LIMIT + 1), ("W2", None, -1),
                             ("V", 3, -1)):
            with pytest.raises(ValueError) as listing:
                enumerate_vectors(family, t, n)
            with pytest.raises(ValueError) as distribution:
                statistic_distribution(family, t, n)
            assert str(distribution.value) == str(listing.value), (family, t, n)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            enumerate_vectors("V", None, 2)
        with pytest.raises(ValueError):
            enumerate_vectors("W2", 3, 2)
        with pytest.raises(ValueError):
            enumerate_vectors("Q", 1, 2)
        for family, t in (("V", None), ("V", 0), ("W2", 3), ("Q", 1)):
            with pytest.raises(ValueError) as listing:
                enumerate_vectors(family, t, 2)
            with pytest.raises(ValueError) as distribution:
                statistic_distribution(family, t, 2)
            assert str(distribution.value) == str(listing.value), (family, t)

    def test_weighted_count_modulus_needs_k(self):
        # checked before enumerating: above the limit the modulus error wins
        for n in (3, ENUMERATION_LIMIT + 1):
            with pytest.raises(ValueError, match="modulus"):
                weighted_count("V", 4, n, modulus=5)

    def test_weighted_count_modulus_zero(self):
        for k in (None, 1):
            for n in (3, ENUMERATION_LIMIT + 1):
                with pytest.raises(ValueError, match="modulus"):
                    weighted_count("V", 4, n, k=k, modulus=0)

    @pytest.mark.parametrize("m", [0, -2])
    def test_residue_classes_modulus_below_one(self, m):
        with pytest.raises(ValueError, match="modulus"):
            residue_classes(statistic_distribution("V", 4, 3), m)

    def test_render_components(self):
        vectors = enumerate_vectors("V", 4, 3)
        rendered = {v.render_components() for v in vectors}
        assert "[];[3];[];[];[];[];[]" in rendered
        assert "[2];[1];[];[];[];[];[]" in rendered


def walk_distribution(family, t, n, h=2, allow_large=False):
    """The reference the convolution replaced: weights summed by statistic
    over every vector of the walk."""
    dist = Counter()
    for v in enumerate_vectors(family, t, n, rank_coefficient=h,
                               allow_large=allow_large):
        dist[v.statistic] += v.weight
    return {m: c for m, c in dist.items() if c}


class TestConvolutionAgainstWalk:
    @pytest.mark.parametrize("family, t, h", [
        ("V", t, h) for t in range(1, 8) for h in (1, 2, 3)] + [("W2", None, 2)])
    def test_distribution_equals_walk(self, family, t, h):
        for n in range(13):
            got = statistic_distribution(family, t, n, rank_coefficient=h)
            assert got == walk_distribution(family, t, n, h), (family, t, h, n)

    @pytest.mark.parametrize("family, t, n", [("W2", None, 40), ("V", 1, 30)])
    def test_large_sizes_equal_the_generating_function(self, family, t, n):
        got = statistic_distribution(family, t, n, allow_large=True)
        assert got == series_counts(family, t, n + 1).z_coefficients(n)


def _size_vectors(scales, n):
    """Every vector of component sizes whose scaled sum is n."""
    if not scales:
        if n == 0:
            yield ()
        return
    for size in range(n // scales[0] + 1):
        for rest in _size_vectors(scales[1:], n - scales[0] * size):
            yield (size,) + rest


def _brute_force(family, t, n, h):
    """Vector partitions with whole-tuple weight and statistic formulas,
    in the walk's order: by first component's size, then its class order,
    then the same for the second component, and so on."""
    tail = ("P", "P") if family == "V" else ("PSTAR", "PSTAR")
    classes = ("DE", "O", "O", "O", "O") + tail
    scales = (1, 1, 1, 1, 1, t or 2, t or 2)
    keyed = []
    for sizes in _size_vectors(scales, n):
        pools = [enumerate_class(k, cls) for k, cls in zip(sizes, classes)]
        for picks in product(*(range(len(pool)) for pool in pools)):
            c = tuple(pool[i] for pool, i in zip(pools, picks))
            weight = -1 if len(c[0]) % 2 else 1
            statistic = len(c[1]) - len(c[2]) + 2 * (len(c[3]) - len(c[4]))
            if family == "V":
                statistic += h * (len(c[5]) - len(c[6]))
            else:
                weight *= star_weight(c[5]) * star_weight(c[6])
                statistic += star_crank(c[5]) + 2 * star_crank(c[6])
            keyed.append(([x for pair in zip(sizes, picks) for x in pair],
                          (c, weight, statistic)))
    return [vector for _, vector in sorted(keyed, key=lambda item: item[0])]


class TestWalkAgainstBruteForce:
    @pytest.mark.parametrize("family, t, h", [
        ("V", t, h) for t in (1, 2, 3, 4) for h in (1, 2, 3)] + [("W2", None, 2)])
    def test_vectors_in_order(self, family, t, h):
        for n in range(8):
            got = [(v.components, v.weight, v.statistic)
                   for v in enumerate_vectors(family, t, n, rank_coefficient=h)]
            assert got == _brute_force(family, t, n, h), (family, t, h, n)


def dfs_walk(family, t, n, h=2):
    """The generator walk the tabulated tails replaced: (components, weight,
    statistic) per vector, each component picked by size, then in class
    order, and the last one taking exactly the size that is left."""
    scales, valued = combinatorics._valued(family, t, n, h, False)
    last = len(valued) - 1

    def rec(i, remaining, chosen, weight, statistic):
        scale = scales[i]
        if i == last:
            if remaining % scale == 0:
                for member, w, s in valued[i][remaining // scale]:
                    yield (*chosen, member), weight * w, statistic + s
            return
        for size in range(remaining // scale + 1):
            for member, w, s in valued[i][size]:
                yield from rec(i + 1, remaining - scale * size, (*chosen, member),
                               weight * w, statistic + s)

    return list(rec(0, n, (), 1, 0))


class TestListingAgainstWalk:
    @pytest.mark.parametrize("family, t, h", [
        ("V", t, h) for t in range(1, 8) for h in (1, 2, 3)] + [("W2", None, 2)])
    def test_vectors_equal_the_walk_in_order(self, family, t, h):
        for n in range(13):
            vectors = enumerate_vectors(family, t, n, rank_coefficient=h)
            # a list, not an iterator: callers take its len()
            assert type(vectors) is list
            got = [(v.components, v.weight, v.statistic) for v in vectors]
            assert got == dfs_walk(family, t, n, h), (family, t, h, n)


class TestRowsAgainstVectors:
    @pytest.mark.parametrize("family, t", [("V", t) for t in range(1, 8)] + [("W2", None)])
    def test_rows_render_the_vectors_in_order(self, family, t):
        for n in range(11):
            want = [(v.render_components(), v.weight, v.statistic)
                    for v in enumerate_vectors(family, t, n)]
            assert vector_rows(family, t, n) == want, (family, t, n)

    def test_rows_keep_the_guard(self):
        with pytest.raises(ValueError, match="allow_large"):
            vector_rows("V", 1, ENUMERATION_LIMIT + 1)
        with pytest.raises(ValueError, match="requires --t"):
            vector_rows("V", None, 2)

    def test_labels_need_no_json_escape(self):
        # the CLI splices labels into JSON strings without encoding them
        for cls in ("P", "O", "DE", "DO", "PSTAR"):
            for n in range(13):
                for member in enumerate_class(n, cls):
                    label = star_label(member)
                    assert json.dumps(label) == '"' + label + '"', label


class TestScalarOracles:
    def test_partition_p(self):
        got = [partition_p(n) for n in range(11)]
        assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        with pytest.raises(ValueError):
            partition_p(-1)

    def test_partition_p_counts_the_listing(self):
        assert all(partition_p(n) == len(enumerate_class(n, "P")) for n in range(21))

    def test_partition_counts_match_the_series(self):
        assert tuple(partition_counts(1000)) == theta.build("p", 1001).coeffs
        assert partition_p(1000) == 24061467864032622473692149727991

    def test_pentagonal_d_matches_series(self):
        d = theta.build("d", 60)
        assert all(pentagonal_d(n) == d[n] for n in range(60))

    def test_parity_weighted_matches_c(self):
        c1 = theta.build("c", 7, 1)
        assert all(parity_weighted_enumeration("V", 1, n) == c1[n] for n in range(7))

    def test_parity_weighted_matches_d(self):
        d = theta.build("d", 7)
        assert all(
            parity_weighted_enumeration("W2", None, n) == d[n] for n in range(7)
        )


def _warm_caches() -> list:
    """Program caches holding entries: any ``functools`` cache in a
    qdissect module, or a non-empty module-level dict named ``*_CACHE``."""
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


class TestNoCacheOutlivesACall:
    def test_only_the_build_store_holds_entries(self):
        theta.build("p", 10)
        statistic_distribution("V", 1, 20, allow_large=True)
        enumerate_vectors("W2", None, 6)
        assert _warm_caches() == ["qdissect.theta._BUILD_CACHE"]

    @pytest.mark.parametrize("family, t, last", [
        ("V", 1, {"P": 9}), ("V", 3, {"P": 3}), ("W2", None, {"PSTAR": 4})])
    def test_each_size_and_class_is_listed_once_per_call(self, monkeypatch,
                                                         family, t, last):
        # the last two records list their class up to n // t, the rest up to n
        calls = Counter()
        original = enumerate_class

        def counting(n, cls):
            calls[n, cls] += 1
            return original(n, cls)

        monkeypatch.setattr(combinatorics, "enumerate_class", counting)
        tops = {"DE": 9, "O": 9, **last}
        for route in (statistic_distribution, enumerate_vectors):
            calls.clear()
            route(family, t, 9)
            assert calls == Counter((n, cls) for cls, top in tops.items()
                                    for n in range(top + 1))
