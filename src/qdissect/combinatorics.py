"""Definition-level counts of weighted 7-colored vector partitions.

This module is the oracle for the series layer: partition classes, the
crank, the multirank and vector-crank statistics are all computed
straight from their definitions, with no generating functions involved.
A family is seven component records (class, weight, statistic).  Vector
listings walk every vector, one kernel giving either the components or
the text of a table row; a statistic distribution convolves one table
per record over sizes, which needs no product formula either, only the
partition classes (listed once per call, cached nowhere) and the records'
two functions.  The series layer must reproduce these counts exactly.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ._record import record
from .bivariate import BivariateSeries
from .products import Factor, ProductSpec, expand_bivariate

# Enumeration refuses larger sizes unless explicitly overridden; vector
# partition counts explode while the series route has no such limit.
ENUMERATION_LIMIT = 24


# ---------------------------------------------------------------------------
# partition classes and the crank
# ---------------------------------------------------------------------------

def _partitions(n: int, top: int, parity: Optional[int], distinct: bool) -> Iterator[tuple]:
    """Partitions of n into parts <= top, largest part first.  Every part
    is congruent to ``parity`` mod 2 (None: any part); ``distinct`` forbids
    a repeated part."""
    if n == 0:
        yield ()
        return
    step = 1 if parity is None else 2
    first = min(n, top)
    if parity is not None and first % 2 != parity:
        first -= 1
    for part in range(first, 0, -step):
        for rest in _partitions(n - part, part - step if distinct else part,
                                parity, distinct):
            yield (part,) + rest


@record(frozen=True)
class TaggedOne:
    """One of the two extra copies of the single-part partition 1."""

    crank: int
    label: str


ONE_STAR = TaggedOne(1, "1*")
ONE_DOUBLE_STAR = TaggedOne(-1, "1**")

# Each partition class: (parity of its parts or None, parts distinct,
# members added at size 1).
_CLASS_RULES = {
    "P": (None, False, ()),
    "O": (1, False, ()),
    "DE": (0, True, ()),
    "DO": (1, True, ()),
    "PSTAR": (None, False, (ONE_STAR, ONE_DOUBLE_STAR)),
}


def enumerate_class(n: int, cls: str) -> tuple:
    """All members of a partition class at size n (complete, no duplicates, not cached)."""
    if n < 0:
        raise ValueError("partition size must be >= 0")
    if cls not in _CLASS_RULES:
        raise ValueError(f"unknown partition class {cls!r}")
    parity, distinct, extra = _CLASS_RULES[cls]
    return tuple(_partitions(n, n, parity, distinct)) + (extra if n == 1 else ())


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

def _unit(member) -> int:
    return 1


def _times_length(h: int) -> Callable:
    return lambda parts: h * len(parts)


# A family is seven component records (class, weight, statistic): each
# component is a member of its partition class, and a vector's weight is
# the product, its statistic the sum, of the values its components get
# from the record's two functions.  These first five are shared by V_t and
# W_2.  Components 2-5 carry odd parts (with repetition): that is the
# reading under which the componentwise product reproduces the stated crank
# generating function f2^3/(zq, 1/z q, z^2 q, 1/z^2 q; q), via
# (z^e q; q^2)(z^e q^2; q^2) = (z^e q; q).
_SHARED = (
    ("DE", lambda parts: -1 if len(parts) % 2 else 1, _times_length(0)),
    ("O", _unit, _times_length(1)),
    ("O", _unit, _times_length(-1)),
    ("O", _unit, _times_length(2)),
    ("O", _unit, _times_length(-2)),
)


def _components(family: str, rank_coefficient: int) -> tuple:
    """The seven component records of a family; the size of each of the
    last two counts t times."""
    if family == "V":
        return _SHARED + (("P", _unit, _times_length(rank_coefficient)),
                          ("P", _unit, _times_length(-rank_coefficient)))
    return _SHARED + (("PSTAR", star_weight, star_crank),
                      ("PSTAR", star_weight, lambda obj: 2 * star_crank(obj)))


@record(frozen=True)
class VectorPartition:
    """A 7-component colored partition from V_t or W_2."""

    components: tuple
    weight: int
    statistic: int

    def render_components(self) -> str:
        """The components' labels joined by ";"."""
        return ";".join(map(star_label, self.components))


def family_t(family: str, t: Optional[int]) -> int:
    """The t of a family: the given positive t for V, and 2 for W2."""
    if family == "V":
        if t is None or t < 1:
            raise ValueError("family V requires --t, a positive integer")
        return t
    if family == "W2":
        if t not in (None, 2):
            raise ValueError("family W2 fixes t = 2")
        return 2
    raise ValueError(f"unknown family {family!r}")


def _valued(family, t, n, rank_coefficient, allow_large):
    """The guard both routes share, then the family's size scales and, per
    component record and size, the (member, weight, statistic) of each
    member of its class; the records of one class share its listing."""
    t = family_t(family, t)
    if n < 0:
        raise ValueError("partition size must be >= 0")
    if n > ENUMERATION_LIMIT and not allow_large:
        raise ValueError(
            f"enumeration refused for n = {n} > {ENUMERATION_LIMIT}; "
            "pass allow_large=True to override"
        )
    scales = (1, 1, 1, 1, 1, t, t)
    records = _components(family, rank_coefficient)
    listed = {key: enumerate_class(*key)
              for key in {(size, cls) for (cls, _, _), scale in zip(records, scales)
                          for size in range(n // scale + 1)}}
    valued = [[[(m, weight(m), statistic(m)) for m in listed[size, cls]]
               for size in range(n // scale + 1)]
              for (cls, weight, statistic), scale in zip(records, scales)]
    return scales, valued


def _walk(family, t, n, rank_coefficient, allow_large, piece, empty) -> list:
    """(joined pieces, weight, statistic) of every vector of n, in walk order.

    Components are picked by size, then in class order; ``piece(i, member)``
    is record i's part of the join and ``empty`` starts it.  The last three
    records are listed once per size left, as tails; each choice of the
    first four appends its tail whole.
    """
    scales, valued = _valued(family, t, n, rank_coefficient, allow_large)
    valued = [[[(piece(i, m), w, s) for m, w, s in row] for row in rows]
              for i, rows in enumerate(valued)]
    head = len(valued) - 3
    tail = [[(empty, 1, 0)]] + [[] for _ in range(n)]
    for scale, members in reversed(list(zip(scales, valued))[head:]):
        tail = [[(p + c, w * w2, s + s2)
                 for size in range(r // scale + 1) for p, w, s in members[size]
                 for c, w2, s2 in tail[r - scale * size]] for r in range(n + 1)]
    out = []

    def rec(i, remaining, chosen, weight, statistic):
        if i == head:
            out.extend([(chosen + c, weight * w, statistic + s)
                        for c, w, s in tail[remaining]])
            return
        scale = scales[i]
        for size in range(remaining // scale + 1):
            for p, w, s in valued[i][size]:
                rec(i + 1, remaining - scale * size, chosen + p,
                    weight * w, statistic + s)

    rec(0, n, empty, 1, 0)
    return out


def enumerate_vectors(
    family: str,
    t: Optional[int],
    n: int,
    rank_coefficient: int = 2,
    allow_large: bool = False,
) -> list:
    """All vector partitions of n in V_t or W_2, with weight and statistic,
    in walk order: components picked by size, then in class order.

    ``rank_coefficient`` generalizes the multirank: any coefficient not
    divisible by 5 on the last component pair works; 2 is the default.
    """
    vectors = _walk(family, t, n, rank_coefficient, allow_large,
                    lambda i, member: (member,), ())
    # in place, so that each row is freed as its vector is made
    for k, row in enumerate(vectors):
        vectors[k] = VectorPartition(*row)
    return vectors


def vector_rows(family: str, t: Optional[int], n: int, allow_large: bool = False) -> list:
    """(components text, weight, statistic) of each vector of ``enumerate_vectors``,
    in the same order, the text equal to its ``render_components()``.  One walk
    joins the labels; each distinct member is rendered once."""
    labels = {}

    def piece(i, member):
        label = labels.get(member)
        if label is None:
            label = labels[member] = star_label(member)
        return label if i == 0 else ";" + label

    return _walk(family, t, n, 2, allow_large, piece, "")


def statistic_distribution(
    family: str,
    t: Optional[int],
    n: int,
    rank_coefficient: int = 2,
    allow_large: bool = False,
) -> dict:
    """Weighted counts by statistic value at size n: m -> sum of weights.

    A vector's weight is the product and its statistic the sum of its
    components' values, so the distribution is a convolution over sizes
    of seven tables, one per component record: size -> {statistic: summed
    weight of the class members of that size}.  No vector is listed.
    """
    scales, valued = _valued(family, t, n, rank_coefficient, allow_large)
    last = len(valued) - 1
    # by total size so far: statistic -> weight over the components placed
    acc = [{0: 1}] + [{} for _ in range(n)]
    for i, (scale, members) in enumerate(zip(scales, valued)):
        tables = []
        for row in members:
            table: dict = {}
            for _, w, s in row:
                table[s] = table.get(s, 0) + w
            tables.append(table)
        out = [{} for _ in range(n + 1)]
        # the last component fills the size up to n: no other total is needed
        for total in range(n + 1) if i < last else (n,):
            target = out[total]
            for size in range(total // scale + 1):
                dist = acc[total - scale * size]
                for s, w in tables[size].items():
                    for s0, w0 in dist.items():
                        target[s0 + s] = target.get(s0 + s, 0) + w0 * w
        acc = out
    return {m: c for m, c in acc[n].items() if c}


def residue_classes(dist: dict, m: int) -> list:
    """Weighted counts of a statistic distribution by residue mod m."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
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
    if modulus is not None:
        if k is None:
            raise ValueError("a modulus requires a residue k")
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
    dist = statistic_distribution(family, t, n, allow_large=allow_large)
    if k is None:
        return sum(dist.values())
    if modulus is None:
        return dist.get(k, 0)
    return sum(c for m, c in dist.items() if (m - k) % modulus == 0)


# ---------------------------------------------------------------------------
# generating-function route for the same counts
# ---------------------------------------------------------------------------

def multirank_spec(t: int) -> ProductSpec:
    """Bivariate product whose z^m q^n coefficient is N_V_t(m, n).

    Its z-factors pair up under the Jacobi triple product, so the product is
    f_2^3 f_t / (theta(z) theta(z^2) C_t(z^2)), with
    theta(x) = sum_n (-1)^n x^n q^(n^2) and C_t as in ``products``: the form
    ``expand_bivariate`` divides by.
    """
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
    """Bivariate product whose z^m q^n coefficient is M*(m, n).

    By the Jacobi triple product it is f_1^2 f_2^3 / (C_1(z) C_1(z^2)), with
    C_1(x) = sum_{k>=1} (-1)^(k+1) q^(k(k-1)/2) (x^(1-k) + ... + x^(k-1)).
    """
    return ProductSpec((
        Factor(2, 2, 3),
        Factor(1, 1, -1, z_exp=1),
        Factor(1, 1, -1, z_exp=-1),
        Factor(1, 1, -1, z_exp=2),
        Factor(1, 1, -1, z_exp=-2),
    ))


def series_counts(
    family: str,
    t: Optional[int],
    precision: int,
    z_mod: Optional[int] = None,
) -> BivariateSeries:
    """Statistic generating function: coefficient of z^m q^n is the
    weighted count with statistic m at size n."""
    t = family_t(family, t)
    spec = multirank_spec(t) if family == "V" else vector_crank_spec()
    return expand_bivariate(spec, precision, z_mod=z_mod)


# ---------------------------------------------------------------------------
# parity-weighted counts and friends
# ---------------------------------------------------------------------------

def partition_counts(n: int) -> list:
    """[p(0), ..., p(n)] by largest part allowed: after ``part`` the table
    counts partitions into parts <= part.  O(n^2) time, O(n) memory."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


def partition_p(n: int) -> int:
    """p(n), the last entry of ``partition_counts(n)``."""
    return partition_counts(n)[n]


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
