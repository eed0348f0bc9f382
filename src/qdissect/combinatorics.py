"""Brute-force enumeration of weighted 7-colored vector partitions.

This module is the definition-level oracle: partition classes, the
crank, the multirank and vector-crank statistics are all computed
straight from their definitions, with no generating functions involved.
The series layer must reproduce these counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .bivariate import BivariateSeries
from .products import Factor, ProductSpec, expand_bivariate
from .series import QSeries

# Enumeration refuses larger sizes unless explicitly overridden; vector
# partition counts explode while the series route has no such limit.
ENUMERATION_LIMIT = 24

PARTITION_CLASSES = ("P", "O", "DE", "DO", "PSTAR")


# ---------------------------------------------------------------------------
# ordinary partitions and the crank
# ---------------------------------------------------------------------------

def _partitions_bounded(n: int, max_part: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            yield (first,) + rest


def _distinct_partitions(n: int, max_part: int, parity: int) -> Iterator[tuple]:
    """Partitions of n into distinct parts congruent to parity mod 2."""
    if n == 0:
        yield ()
        return
    first = min(n, max_part)
    if first % 2 != parity:
        first -= 1
    while first >= 1:
        for rest in _distinct_partitions(n - first, first - 2, parity):
            yield (first,) + rest
        first -= 2


def _odd_partitions(n: int, max_part: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    first = min(n, max_part)
    if first % 2 == 0:
        first -= 1
    while first >= 1:
        for rest in _odd_partitions(n - first, first):
            yield (first,) + rest
        first -= 2


@dataclass(frozen=True)
class TaggedOne:
    """One of the two extra copies of the single-part partition 1."""

    crank: int
    label: str


ONE_STAR = TaggedOne(1, "1*")
ONE_DOUBLE_STAR = TaggedOne(-1, "1**")


@lru_cache(maxsize=None)
def enumerate_class(n: int, cls: str) -> tuple:
    """All members of a partition class at size n (complete, no duplicates)."""
    if n < 0:
        raise ValueError("partition size must be >= 0")
    if cls == "P":
        return tuple(_partitions_bounded(n, n))
    if cls == "O":
        return tuple(_odd_partitions(n, n))
    if cls == "DE":
        return tuple(_distinct_partitions(n, n, 0))
    if cls == "DO":
        return tuple(_distinct_partitions(n, n, 1))
    if cls == "PSTAR":
        extra = (ONE_STAR, ONE_DOUBLE_STAR) if n == 1 else ()
        return tuple(_partitions_bounded(n, n)) + extra
    raise ValueError(f"unknown partition class {cls!r}")


def crank(parts: tuple) -> int:
    """Crank of an ordinary partition.

    Largest part when there are no 1's; otherwise the number of parts
    exceeding the count of 1's, minus that count.  The empty partition
    gets crank 0.
    """
    if not parts:
        return 0
    ones = sum(1 for p in parts if p == 1)
    if ones == 0:
        return parts[0]
    bigger = sum(1 for p in parts if p > ones)
    return bigger - ones


def star_weight(obj) -> int:
    if isinstance(obj, TaggedOne):
        return 1
    return -1 if obj == (1,) else 1


def star_crank(obj) -> int:
    if isinstance(obj, TaggedOne):
        return obj.crank
    if obj == (1,):
        return 0
    return crank(obj)


def star_label(obj) -> str:
    if isinstance(obj, TaggedOne):
        return f"[{obj.label}]"
    return "[" + ",".join(str(p) for p in obj) + "]"


# ---------------------------------------------------------------------------
# vector partitions
# ---------------------------------------------------------------------------

_V_CLASSES = ("DE", "O", "O", "O", "O", "P", "P")
# Components 2-5 carry odd parts (with repetition): that is the reading
# under which the componentwise product reproduces the stated crank
# generating function f2^3/(zq, 1/z q, z^2 q, 1/z^2 q; q), via
# (z^e q; q^2)(z^e q^2; q^2) = (z^e q; q).
_W_CLASSES = ("DE", "O", "O", "O", "O", "PSTAR", "PSTAR")


@dataclass(frozen=True)
class VectorPartition:
    """A 7-component colored partition from V_t or W_2."""

    family: str
    t: int
    components: tuple
    weight: int
    statistic: int
    total: int

    def render_components(self) -> str:
        return ";".join(star_label(c) for c in self.components)


def _check_family(family: str, t: Optional[int]) -> int:
    if family == "V":
        if t is None or t < 1:
            raise ValueError("family V needs a positive integer t")
        return t
    if family == "W2":
        if t not in (None, 2):
            raise ValueError("family W2 fixes t = 2")
        return 2
    raise ValueError(f"unknown family {family!r}")


def _guard(n: int, allow_large: bool):
    if n < 0:
        raise ValueError("partition size must be >= 0")
    if n > ENUMERATION_LIMIT and not allow_large:
        raise ValueError(
            f"enumeration refused for n = {n} > {ENUMERATION_LIMIT}; "
            "pass allow_large=True to override"
        )


def _iter_tuples(classes, scales, n):
    """All 7-tuples with scaled component sums adding to n."""

    def rec(i, remaining, chosen):
        if i == len(classes):
            if remaining == 0:
                yield tuple(chosen)
            return
        scale = scales[i]
        for sub in range(remaining // scale + 1):
            for comp in enumerate_class(sub, classes[i]):
                chosen.append(comp)
                yield from rec(i + 1, remaining - scale * sub, chosen)
                chosen.pop()

    yield from rec(0, n, [])


def _v_stats(comps, rank_coefficient):
    weight = -1 if len(comps[0]) % 2 else 1
    statistic = (
        len(comps[1])
        - len(comps[2])
        + 2 * (len(comps[3]) - len(comps[4]))
        + rank_coefficient * (len(comps[5]) - len(comps[6]))
    )
    return weight, statistic


def _w_stats(comps):
    weight = (-1 if len(comps[0]) % 2 else 1) * star_weight(comps[5]) * star_weight(
        comps[6]
    )
    statistic = (
        len(comps[1])
        - len(comps[2])
        + 2 * (len(comps[3]) - len(comps[4]))
        + star_crank(comps[5])
        + 2 * star_crank(comps[6])
    )
    return weight, statistic


def _walk(family, t, n, rank_coefficient, allow_large):
    """The family's t, and an iterator of (components, weight, statistic)
    over all its vector partitions of n."""
    t = _check_family(family, t)
    _guard(n, allow_large)
    if family == "V":
        classes, stats = _V_CLASSES, lambda comps: _v_stats(comps, rank_coefficient)
    else:
        classes, stats = _W_CLASSES, _w_stats
    tuples = _iter_tuples(classes, (1, 1, 1, 1, 1, t, t), n)
    return t, ((comps, *stats(comps)) for comps in tuples)


def enumerate_vectors(
    family: str,
    t: Optional[int],
    n: int,
    rank_coefficient: int = 2,
    allow_large: bool = False,
) -> list:
    """All vector partitions of n in V_t or W_2, with weight and statistic.

    ``rank_coefficient`` generalizes the multirank: any coefficient not
    divisible by 5 on the last component pair works; 2 is the default.
    """
    t, walk = _walk(family, t, n, rank_coefficient, allow_large)
    return [VectorPartition(family, t, comps, weight, statistic, n)
            for comps, weight, statistic in walk]


def statistic_distribution(
    family: str,
    t: Optional[int],
    n: int,
    rank_coefficient: int = 2,
    allow_large: bool = False,
) -> dict:
    """Weighted counts by statistic value: m -> sum of weights."""
    _, walk = _walk(family, t, n, rank_coefficient, allow_large)
    dist: dict = {}
    for _, weight, statistic in walk:
        dist[statistic] = dist.get(statistic, 0) + weight
    return {m: c for m, c in dist.items() if c}


def residue_classes(dist: dict, m: int) -> list:
    """Weighted counts of a statistic distribution by residue mod m."""
    return [sum(c for s, c in dist.items() if s % m == k) for k in range(m)]


def weighted_count(
    family: str,
    t: Optional[int],
    n: int,
    k: Optional[int] = None,
    modulus: Optional[int] = None,
    allow_large: bool = False,
) -> int:
    """N_V_t(k, modulus, n) / M*(k, modulus, n) by direct enumeration.

    Without k/modulus this is the total weighted count, i.e. w_t(n).
    """
    dist = statistic_distribution(family, t, n, allow_large=allow_large)
    if k is None:
        return sum(dist.values())
    if modulus is None:
        return dist.get(k, 0)
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return sum(c for m, c in dist.items() if (m - k) % modulus == 0)


# ---------------------------------------------------------------------------
# generating-function route for the same counts
# ---------------------------------------------------------------------------

def multirank_spec(t: int) -> ProductSpec:
    """Bivariate product whose z^m q^n coefficient is N_V_t(m, n)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return ProductSpec((
        Factor(2, 2, 1),
        Factor(1, 2, -1, z_exp=1),
        Factor(1, 2, -1, z_exp=-1),
        Factor(1, 2, -1, z_exp=2),
        Factor(1, 2, -1, z_exp=-2),
        Factor(t, t, -1, z_exp=2),
        Factor(t, t, -1, z_exp=-2),
    ))


def vector_crank_spec() -> ProductSpec:
    """Bivariate product whose z^m q^n coefficient is M*(m, n)."""
    return ProductSpec((
        Factor(2, 2, 3),
        Factor(1, 1, -1, z_exp=1),
        Factor(1, 1, -1, z_exp=-1),
        Factor(1, 1, -1, z_exp=2),
        Factor(1, 1, -1, z_exp=-2),
    ))


def kim_star_spec() -> ProductSpec:
    """f_1 / ((zq; q)(z^-1 q; q)); the one-component crank carrier on P*."""
    return ProductSpec((
        Factor(1, 1, 1),
        Factor(1, 1, -1, z_exp=1),
        Factor(1, 1, -1, z_exp=-1),
    ))


def series_counts(
    family: str,
    t: Optional[int],
    precision: int,
    z_mod: Optional[int] = None,
) -> BivariateSeries:
    """Statistic generating function: coefficient of z^m q^n is the
    weighted count with statistic m at size n."""
    t = _check_family(family, t)
    spec = multirank_spec(t) if family == "V" else vector_crank_spec()
    return expand_bivariate(spec, precision, z_mod=z_mod)


# ---------------------------------------------------------------------------
# parity-weighted counts and friends
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partition_count(n: int, max_part: int) -> int:
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    for first in range(min(n, max_part), 0, -1):
        total += _partition_count(n - first, first)
    return total


def partition_p(n: int) -> int:
    """p(n), by part-bounded dynamic programming (no series involved)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partition_count(n, n)


def pentagonal_d(n: int) -> int:
    """(-1)^m when n = m(3m-1) or m(3m+1) for some m >= 0, else 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m = 0
    while m * (3 * m - 1) <= n:
        if n in (m * (3 * m - 1), m * (3 * m + 1)):
            return -1 if m % 2 else 1
        m += 1
    return 0


def parity_weighted_enumeration(family: str, t: Optional[int], n: int) -> int:
    """Sum of (-1)^m over the statistic distribution: c_t(n) or d(n)."""
    dist = statistic_distribution(family, t, n)
    return sum(c if m % 2 == 0 else -c for m, c in dist.items())
