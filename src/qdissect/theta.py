"""Named series builders and the declarative identity catalog.

Every displayed dissection/congruence identity used by the verification
suite lives here as data: an id, two expression trees, an optional
modulus, and a default precision.  One generic evaluator turns a tree
into an exact QSeries, so entries are auditable side by side with the
statements they encode.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from ._record import record
from .products import Factor, ProductSpec, eta_quotient, expand_univariate
from .series import QSeries, cube_terms, equal_upto, product
from .series import pentagonal_sum  # noqa: F401 (re-export)


# ---------------------------------------------------------------------------
# named series
# ---------------------------------------------------------------------------

# Series defined by a fixed eta quotient (f_k = (q^k;q^k)_inf powers).
_FIXED_ETA = {
    "phi": {2: 5, 1: -2, 4: -2},      # sum of q^(n^2) over all integers n
    "phi_neg": {1: 2, 2: -1},         # phi(-q)
    "psi": {2: 2, 1: -1},             # sum of q^(n(n+1)/2), n >= 0
    "a": {2: 5, 1: -4},
    "a1": {2: 4, 3: 4, 6: 1, 1: -10},
    "a2": {2: 14, 1: -4},
    "d": {2: 1},
    "p": {1: -1},
}

# Series taking an integer parameter.
_PARAMETRIC = {"f", "w", "c"}

SERIES_NAMES = tuple(sorted(_FIXED_ETA) + sorted(_PARAMETRIC) + ["x"])


def series_spec(name: str, param: Optional[int] = None) -> ProductSpec:
    """The authoritative product form of a named series."""
    if name in _FIXED_ETA:
        if param is not None:
            raise ValueError(f"series {name!r} takes no parameter")
        return eta_quotient(_FIXED_ETA[name])
    if name == "x":
        # (q; q^2)_inf / (q^3; q^6)_inf^3
        if param is not None:
            raise ValueError("series 'x' takes no parameter")
        return ProductSpec((Factor(1, 2, 1), Factor(3, 6, -3)))
    if name in _PARAMETRIC:
        if param is None or param < 1:
            raise ValueError(f"series {name!r} needs a positive integer parameter")
        if name == "f":
            return eta_quotient({param: 1})
        powers = {2: 5, 1: -4} if name == "w" else {4: 2, 2: -1}
        powers[param] = powers.get(param, 0) - 2
        return eta_quotient(powers)
    raise ValueError(f"unknown series name {name!r}")


# The one cache of series expansions: per (name, param), or per
# (name, param, modulus) for residues mod M, the longest expansion built so
# far.  Truncations of a product are prefix-stable, so shorter requests are
# served its prefix.  The oldest entry goes first once more keys than
# _BUILD_CACHE_KEYS are held (the full suite uses 41).
_BUILD_CACHE: dict = {}
_BUILD_CACHE_KEYS = 64


def build(
    name: str, precision: int, param: Optional[int] = None,
    modulus: Optional[int] = None,
) -> QSeries:
    """Expand a named series to the requested precision, as residues
    mod ``modulus`` when one is given.

    Names: f(k), phi, phi_neg, psi, x, w(t), a, a1, a2, c(t), d, p.
    """
    key = (name, param) if modulus is None else (name, param, modulus)
    series = _BUILD_CACHE.get(key)
    if series is None or series.precision < precision:
        series = expand_univariate(series_spec(name, param), precision, modulus)
        _BUILD_CACHE.pop(key, None)
        _BUILD_CACHE[key] = series
        if len(_BUILD_CACHE) > _BUILD_CACHE_KEYS:
            del _BUILD_CACHE[next(iter(_BUILD_CACHE))]
    return series.truncate(precision)


def build_longest(builds: Iterable[tuple]):
    """``build`` each (name, param, modulus) of the (name, param, modulus,
    length) ``builds`` once, at the longest length asked of it, in order of
    first appearance; the cache then serves all of ``builds`` as prefixes."""
    longest: dict = {}
    for name, param, modulus, length in builds:
        key = (name, param, modulus)
        longest[key] = max(length, longest.get(key, 0))
    for (name, param, modulus), length in longest.items():
        build(name, length, param, modulus)


# ---------------------------------------------------------------------------
# closed sum forms (cross-checks for the product forms above)
# ---------------------------------------------------------------------------

def jacobi_cube_sum(precision: int, k: int = 1) -> QSeries:
    """f_k^3 as the sum of (-1)^n (2n+1) q^(k*n(n+1)/2) (Jacobi)."""
    out = [0] * precision
    for e, c in cube_terms(precision, k):
        out[e] = c
    return QSeries(tuple(out))


def phi_sum(precision: int) -> QSeries:
    out = [0] * precision
    n = 0
    while n * n < precision:
        out[n * n] += 1 if n == 0 else 2
        n += 1
    return QSeries(tuple(out))


def phi_neg_sum(precision: int) -> QSeries:
    out = [0] * precision
    n = 0
    while n * n < precision:
        v = 1 if n == 0 else 2
        out[n * n] += -v if n % 2 else v
        n += 1
    return QSeries(tuple(out))


def psi_sum(precision: int) -> QSeries:
    out = [0] * precision
    n = 0
    while n * (n + 1) // 2 < precision:
        out[n * (n + 1) // 2] += 1
        n += 1
    return QSeries(tuple(out))


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

@record(frozen=True)
class Const:
    value: int


@record(frozen=True)
class Ref:
    """A named series (see ``build``)."""

    name: str
    param: Optional[int] = None


@record(frozen=True)
class Quot:
    """A raw Pochhammer product."""

    spec: ProductSpec


@record(frozen=True)
class Sum:
    terms: tuple


@record(frozen=True)
class Mul:
    factors: tuple


@record(frozen=True)
class Scale:
    scalar: int
    inner: object


@record(frozen=True)
class Shift:
    """Multiplication by q^exponent."""

    exponent: int
    inner: object


@record(frozen=True)
class Sub:
    """Substitution q -> q^exponent applied to the inner expression."""

    exponent: int
    inner: object


@record(frozen=True)
class Pow:
    inner: object
    exponent: int


@record(frozen=True)
class Dissect:
    inner: object
    modulus: int
    residue: int


def _inner(node, precision: int) -> list:
    """The (subexpression, precision) pairs from which ``evaluate`` builds
    ``node`` at ``precision``; none for a leaf."""
    if isinstance(node, (Const, Ref, Quot)):
        return []
    if isinstance(node, (Sum, Mul)):
        return [(inner, precision)
                for inner in (node.terms if isinstance(node, Sum) else node.factors)]
    if isinstance(node, (Scale, Pow)):
        return [(node.inner, precision)]
    if isinstance(node, Shift):
        # a shift past the precision leaves none of its inner series
        return [(node.inner, precision - node.exponent)] if node.exponent < precision else []
    if isinstance(node, Sub):
        return [(node.inner, -(-precision // node.exponent))]
    if isinstance(node, Dissect):
        return [(node.inner, node.modulus * precision)]
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node, precision: int, modulus: Optional[int] = None) -> QSeries:
    """Expand an expression tree to exactly ``precision`` coefficients, as
    residues mod ``modulus`` when one is given."""
    if precision < 0:
        raise ValueError("precision must be >= 0")
    if isinstance(node, Const):
        return QSeries.one(precision, modulus).scale(node.value)
    if isinstance(node, Ref):
        return build(node.name, precision, node.param, modulus)
    if isinstance(node, Quot):
        return expand_univariate(node.spec, precision, modulus)
    parts = (evaluate(inner, length, modulus) for inner, length in _inner(node, precision))
    if isinstance(node, Sum):
        return sum(parts, QSeries.zero(precision, modulus))
    if isinstance(node, Mul):
        return product(parts, precision, modulus)
    part = next(parts, None)
    if isinstance(node, Scale):
        return part.scale(node.scalar)
    if isinstance(node, Pow):
        return part.power(node.exponent)
    if isinstance(node, Shift):
        return QSeries.zero(precision, modulus) if part is None else part.shift(node.exponent)
    if isinstance(node, Sub):
        return part.substitute_power(node.exponent).truncate(precision)
    return part.dissect(node.modulus, node.residue)


def requests(node, precision: int, modulus: Optional[int] = None):
    """The (name, param, modulus, length) of each ``build`` that
    ``evaluate(node, precision, modulus)`` makes, in its order."""
    if precision < 0:
        raise ValueError("precision must be >= 0")
    if isinstance(node, Ref):
        yield node.name, node.param, modulus, precision
    for inner, length in _inner(node, precision):
        yield from requests(inner, length, modulus)


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

@record(frozen=True)
class IdentityEntry:
    id: str
    description: str
    lhs: object
    rhs: object
    modulus: Optional[int] = None
    default_precision: int = 120


@record
class IdentityReport:
    id: str
    status: str              # "pass" | "fail"
    precision: int
    mismatch_index: Optional[int] = None
    mismatch_left: Optional[int] = None
    mismatch_right: Optional[int] = None
    millis: float = 0.0


def _eta(powers: dict, scalar: int = 1, q_shift: int = 0) -> Quot:
    return Quot(eta_quotient(powers, scalar=scalar, q_shift=q_shift))


def _x3() -> Sub:
    return Sub(3, Ref("x"))


def _catalog_entries() -> tuple:
    x3 = _x3()
    q = Shift(1, Const(1))
    # 3-dissection carrier of f_2^5/f_1^4 (and its w_3 variant with f_1^-2 more)
    carrier = _eta({2: 4, 3: 4, 6: 1, 1: -8})
    carrier_w3 = _eta({2: 4, 3: 4, 6: 1, 1: -10})
    inner_r0 = Sum((_eta({2: 2, 3: 6, 1: -2, 6: -6}),
                    _eta({1: 1, 6: 3, 2: -1, 3: -3}, scalar=10, q_shift=1)))
    inner_r1 = Sum((_eta({2: 1, 3: 3, 1: -1, 6: -3}),
                    _eta({1: 2, 6: 6, 2: -2, 3: -6}, q_shift=1)))

    return (
        IdentityEntry(
            "2dis-f1-squared",
            "f1^2 = f2 f8^5 / (f4^2 f16^2) - 2q f2 f16^2 / f8",
            _eta({1: 2}),
            Sum((_eta({2: 1, 8: 5, 4: -2, 16: -2}),
                 _eta({2: 1, 16: 2, 8: -1}, scalar=-2, q_shift=1))),
            default_precision=500,
        ),
        IdentityEntry(
            "2dis-f1-fourth",
            "f1^4 = f4^10 / (f2^2 f8^4) - 4q f2^2 f8^4 / f4^2",
            _eta({1: 4}),
            Sum((_eta({4: 10, 2: -2, 8: -4}),
                 _eta({2: 2, 8: 4, 4: -2}, scalar=-4, q_shift=1))),
            default_precision=500,
        ),
        IdentityEntry(
            "2dis-inv-f1-fourth",
            "1/f1^4 = f4^14 / (f2^14 f8^4) + 4q f4^2 f8^4 / f2^10",
            _eta({1: -4}),
            Sum((_eta({4: 14, 2: -14, 8: -4}),
                 _eta({4: 2, 8: 4, 2: -10}, scalar=4, q_shift=1))),
            default_precision=500,
        ),
        IdentityEntry(
            "3dis-psi",
            "psi(q) = psi(q^9) (1/x(q^3) + q)",
            Ref("psi"),
            Mul((Sub(9, Ref("psi")), Sum((Pow(x3, -1), q)))),
        ),
        IdentityEntry(
            "3dis-inv-phi-neg",
            "1/phi(-q) = phi(-q^9)^3/phi(-q^3)^4 (1 + 2q x(q^3) + 4q^2 x(q^3)^2)",
            Pow(Ref("phi_neg"), -1),
            Mul((Pow(Sub(9, Ref("phi_neg")), 3),
                 Pow(Sub(3, Ref("phi_neg")), -4),
                 Sum((Const(1),
                      Scale(2, Shift(1, x3)),
                      Scale(4, Shift(2, Pow(x3, 2))))))),
        ),
        IdentityEntry(
            "1dis-w4-even",
            "sum w_4(2n) q^n = f2^14 / (f1^9 f4^4 f2^2)",
            Dissect(Ref("w", 4), 2, 0),
            _eta({2: 12, 1: -9, 4: -4}),
            default_precision=150,
        ),
        IdentityEntry(
            "1dis-w4-odd",
            "sum w_4(2n+1) q^n = 4 f2^2 f4^4 / (f1^5 f2^2)",
            Dissect(Ref("w", 4), 2, 1),
            _eta({4: 4, 1: -5}, scalar=4),
            default_precision=150,
        ),
        IdentityEntry(
            "1dis-w2-even",
            "sum w_2(2n) q^n = f2^14 / (f1^9 f4^4 f1^2)",
            Dissect(Ref("w", 2), 2, 0),
            _eta({2: 14, 1: -11, 4: -4}),
            default_precision=150,
        ),
        IdentityEntry(
            "1dis-w2-odd",
            "sum w_2(2n+1) q^n = 4 f2^2 f4^4 / f1^7",
            Dissect(Ref("w", 2), 2, 1),
            _eta({2: 2, 4: 4, 1: -7}, scalar=4),
            default_precision=150,
        ),
        IdentityEntry(
            "key-identity",
            "f2^5/f1^4 = f6^4 f9^4 f18 / f3^8 * "
            "(x(q^3)^-2 + 4q x(q^3)^-1 + 9q^2 + 10q^3 x(q^3) + 4q^4 x(q^3)^2)",
            Ref("a"),
            Mul((_eta({6: 4, 9: 4, 18: 1, 3: -8}),
                 Sum((Pow(x3, -2),
                      Scale(4, Shift(1, Pow(x3, -1))),
                      Shift(2, Const(9)),
                      Scale(10, Shift(3, x3)),
                      Scale(4, Shift(4, Pow(x3, 2))))))),
        ),
        IdentityEntry(
            "3dis-a-r0",
            "sum a(3n) q^n = carrier * (f2^2 f3^6/(f1^2 f6^6) + 10q f1 f6^3/(f2 f3^3))",
            Dissect(Ref("a"), 3, 0),
            Mul((carrier, inner_r0)),
        ),
        IdentityEntry(
            "3dis-a-r1",
            "sum a(3n+1) q^n = 4 * carrier * (f2 f3^3/(f1 f6^3) + q f1^2 f6^6/(f2^2 f3^6))",
            Dissect(Ref("a"), 3, 1),
            Scale(4, Mul((carrier, inner_r1))),
        ),
        IdentityEntry(
            "3dis-a-r2",
            "sum a(3n+2) q^n = 9 f2^4 f3^4 f6 / f1^8",
            Dissect(Ref("a"), 3, 2),
            _eta({2: 4, 3: 4, 6: 1, 1: -8}, scalar=9),
        ),
        IdentityEntry(
            "3dis-w3-r0",
            "sum w_3(3n) q^n = carrier/f1^2 * (f2^2 f3^6/(f1^2 f6^6) + 10q f1 f6^3/(f2 f3^3))",
            Dissect(Ref("w", 3), 3, 0),
            Mul((carrier_w3, inner_r0)),
        ),
        IdentityEntry(
            "3dis-w3-r1",
            "sum w_3(3n+1) q^n = 4 * carrier/f1^2 * (f2 f3^3/(f1 f6^3) + q f1^2 f6^6/(f2^2 f3^6))",
            Dissect(Ref("w", 3), 3, 1),
            Scale(4, Mul((carrier_w3, inner_r1))),
        ),
        IdentityEntry(
            "3dis-w3-r2",
            "sum w_3(3n+2) q^n = 9 f2^4 f3^4 f6 / f1^10",
            Dissect(Ref("w", 3), 3, 2),
            _eta({2: 4, 3: 4, 6: 1, 1: -10}, scalar=9),
        ),
        IdentityEntry(
            "mod3-a1-step1",
            "f2^4 f3^4 f6 / f1^10 == f1^2 f2^7 (mod 3)",
            Ref("a1"),
            _eta({1: 2, 2: 7}),
            modulus=3,
            default_precision=200,
        ),
        IdentityEntry(
            "mod3-a1-step2",
            "sum a1(2n+1) q^n == -2 f1^8 f8^2 / f4 (mod 3)",
            Dissect(Ref("a1"), 2, 1),
            _eta({1: 8, 8: 2, 4: -1}, scalar=-2),
            modulus=3,
            default_precision=200,
        ),
        IdentityEntry(
            "mod3-a1-step3",
            "sum a1(4n+3) q^n == 16 f2^7 f4^2 (mod 3)",
            Dissect(Ref("a1"), 4, 3),
            _eta({2: 7, 4: 2}, scalar=16),
            modulus=3,
            default_precision=200,
        ),
        IdentityEntry(
            "mod3-a1-final",
            "sum a1(8n+7) q^n == 0 (mod 3)",
            Dissect(Ref("a1"), 8, 7),
            Const(0),
            modulus=3,
            default_precision=200,
        ),
        IdentityEntry(
            "w4-frobenius",
            "sum w_4(n) q^n = (q^2;q^4) / ((q;q^2)^4 (q^4;q^4))",
            Ref("w", 4),
            Quot(ProductSpec((Factor(2, 4, 1), Factor(1, 2, -4), Factor(4, 4, -1)))),
            default_precision=500,
        ),
    )


_CATALOG = None


def catalog() -> list:
    """All identity entries, one per displayed identity."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _catalog_entries()
    return list(_CATALOG)


def catalog_entry(entry_id: str) -> IdentityEntry:
    for entry in catalog():
        if entry.id == entry_id:
            return entry
    raise KeyError(f"no identity entry with id {entry_id!r}")


def catalog_summaries() -> list:
    return [
        {
            "id": e.id,
            "description": e.description,
            "modulus": e.modulus,
            "default_precision": e.default_precision,
        }
        for e in catalog()
    ]


def entry_requests(entry: IdentityEntry, precision: Optional[int] = None) -> list:
    """The ``requests`` of both sides of ``verify_entry(entry, precision)``."""
    if precision is None:
        precision = entry.default_precision
    return [*requests(entry.lhs, precision, entry.modulus),
            *requests(entry.rhs, precision, entry.modulus)]


def verify_entry(
    entry: IdentityEntry, precision: Optional[int] = None
) -> IdentityReport:
    """Evaluate both sides, mod the entry's modulus when it has one, and
    compare coefficientwise."""
    if precision is None:
        precision = entry.default_precision
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    start = time.perf_counter()
    lhs = evaluate(entry.lhs, precision, entry.modulus)
    rhs = evaluate(entry.rhs, precision, entry.modulus)
    cmp = equal_upto(lhs, rhs, precision)
    millis = (time.perf_counter() - start) * 1000.0
    status = "pass" if cmp.equal else "fail"  # an equal comparison has no mismatch
    return IdentityReport(entry.id, status, precision, mismatch_index=cmp.index,
                          mismatch_left=cmp.left, mismatch_right=cmp.right, millis=millis)
