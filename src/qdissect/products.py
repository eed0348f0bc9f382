"""Symbolic eta-quotient / Pochhammer-product descriptions and their expansion.

A ProductSpec is a product of generalized Pochhammer symbols
(z^zExp q^a; q^b)_inf^e, optionally times a leading monomial
scalar * z^j q^k.  Expansion to any precision is exact; an eta factor
f_k = (q^k; q^k) comes from Euler's pentagonal sum.  Over the integers
the expansion divides by each f_k in the denominator through Euler's
recurrence (``series.divide_by_eta``); taken mod M, and for any
denominator factor that is not an eta factor, it inverts the product of
the denominator by Newton iteration (every factor is a unit with
constant term 1).  A univariate expansion mod M gives exact residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .bivariate import BivariateSeries
from .series import QSeries, divide_by_eta, pentagonal_sum, pochhammer_series, product


@dataclass(frozen=True)
class Factor:
    """One symbol (z^z_exp q^q_offset; q^q_step)_inf raised to exponent."""

    q_offset: int
    q_step: int
    exponent: int = 1
    z_exp: int = 0

    def __post_init__(self):
        if self.q_offset < 1:
            raise ValueError("q_offset must be >= 1")
        if self.q_step < 1:
            raise ValueError("q_step must be >= 1")
        if self.exponent == 0:
            raise ValueError("factor exponent must be nonzero")


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple
    scalar: int = 1
    q_shift: int = 0
    z_shift: int = 0

    def __post_init__(self):
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))
        if self.q_shift < 0:
            raise ValueError("q_shift must be nonnegative")

    @property
    def is_univariate(self) -> bool:
        return self.z_shift == 0 and all(f.z_exp == 0 for f in self.factors)


def f(k: int, exponent: int = 1) -> Factor:
    """The eta-quotient building block f_k = (q^k; q^k)_inf."""
    return Factor(k, k, exponent)


def eta_quotient(powers: dict, scalar: int = 1, q_shift: int = 0) -> ProductSpec:
    """Product of f_k^e over a {k: e} mapping, times scalar * q^q_shift."""
    factors = tuple(f(k, e) for k, e in sorted(powers.items()) if e != 0)
    return ProductSpec(factors, scalar=scalar, q_shift=q_shift)


def expand_univariate(
    spec: ProductSpec, precision: int, modulus: Optional[int] = None
) -> QSeries:
    """Expand to ``precision`` coefficients, as residues mod ``modulus``
    when one is given (every factor is a unit, so its inverse exists
    in Z/MZ too).  Over Z, Euler's recurrence divides out the eta factors
    of the denominator, avoiding Newton products of coefficients hundreds
    of bits wide; mod M those products stay narrow and are the faster route.
    """
    if not spec.is_univariate:
        raise ValueError("spec has z-dependence; use expand_bivariate")
    if precision < 0:
        raise ValueError("precision must be >= 0")
    numerator, denominator, eta_divisors = [], [], []
    for fac in spec.factors:
        is_eta = fac.q_offset == fac.q_step  # the eta factor f_k
        if is_eta and fac.exponent < 0 and modulus is None:
            eta_divisors.append(fac)
            continue
        if is_eta:
            base = pentagonal_sum(precision, fac.q_step)
        else:
            base = pochhammer_series(fac.q_offset, fac.q_step, precision)
        powered = QSeries(base.coeffs, modulus).power(abs(fac.exponent))
        (numerator if fac.exponent > 0 else denominator).append(powered)
    if denominator:
        numerator.append(product(denominator, precision, modulus).inverse())
    result = product(numerator, precision, modulus)
    for fac in eta_divisors:
        result = divide_by_eta(result, fac.q_step, -fac.exponent)
    if spec.scalar != 1:
        result = result.scale(spec.scalar)
    if spec.q_shift:
        result = result.shift(spec.q_shift).truncate(precision)
    return result


def expand_bivariate(
    spec: ProductSpec, precision: int, z_mod: Optional[int] = None
) -> BivariateSeries:
    """Expand with the z marker kept.

    With ``z_mod`` set, z-exponents are reduced modulo it throughout,
    i.e. the expansion is taken in Z[z]/(z^z_mod - 1).  Residue buckets
    of the reduced series agree with those of the full series, which
    keeps equidistribution checks cheap at large precision.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    rows = [dict() for _ in range(precision)]
    if precision == 0:
        return BivariateSeries(())

    def reduce_exp(e: int) -> int:
        return e % z_mod if z_mod else e

    if spec.q_shift < precision:
        rows[spec.q_shift][reduce_exp(spec.z_shift)] = spec.scalar

    for fac in spec.factors:
        for _ in range(abs(fac.exponent)):
            for k in range(fac.q_offset, precision, fac.q_step):
                eps = fac.z_exp
                if fac.exponent > 0:
                    # multiply by (1 - z^eps q^k); descending keeps the
                    # source rows untouched until they are consumed
                    for n in range(precision - 1, k - 1, -1):
                        target = rows[n]
                        for e, c in rows[n - k].items():
                            e2 = reduce_exp(e + eps)
                            target[e2] = target.get(e2, 0) - c
                else:
                    # divide: geometric-series recurrence, ascending
                    for n in range(k, precision):
                        target = rows[n]
                        for e, c in rows[n - k].items():
                            e2 = reduce_exp(e + eps)
                            target[e2] = target.get(e2, 0) + c
    return BivariateSeries(
        tuple({e: c for e, c in row.items() if c} for row in rows)
    )


def expand(
    spec: ProductSpec, precision: int, z_mod: Optional[int] = None
) -> Union[QSeries, BivariateSeries]:
    if spec.is_univariate and z_mod is None:
        return expand_univariate(spec, precision)
    return expand_bivariate(spec, precision, z_mod=z_mod)
