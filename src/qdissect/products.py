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

A bivariate expansion holds each q-degree row as one big integer
modulo 2^(mW) - 1, the row's value at z = 2^W in Z[z]/(z^m - 1)
(Kronecker substitution along z).  There z^m = 1, so multiplying by z^e
is a rotation of the m lanes of W bits, exact for either sign, and each
factor (1 - z^e q^k) costs one rotation and one addition or subtraction
per row.  The rows start as the univariate expansion of the z-free
factors, so no lane is multiplied afterwards.  One sign bit above the
coefficient bound makes each final row's balanced digits its lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .bivariate import BivariateSeries
from .series import (QSeries, _unpack, divide_by_eta, pentagonal_sum,
                     pochhammer_series, product)


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


def _eta_form(q_offset: int, q_step: int, exponent: int) -> list:
    """(q^a; q^b)^e as factors, with (q^a; q^2a) = f_a / f_2a written as eta
    factors so that its expansion stays on Euler's division."""
    if q_step == 2 * q_offset:
        return [f(q_offset, exponent), f(q_step, -exponent)]
    return [Factor(q_offset, q_step, exponent)]


def _lane_width(spec: ProductSpec, precision: int) -> int:
    """The bit length of |scalar| times the largest coefficient below
    q^precision of the "absolute" product of ``spec``'s factors, which
    bounds every lane in magnitude.

    Set z = 1 and make every sign positive: a division (z^e q^a; q^b)^-k
    becomes (q^a; q^b)^-k, and a numerator (z^e q^a; q^b)^k becomes
    (-q^a; q^b)^k = (q^2a; q^2b)^k / (q^a; q^b)^k (z-free factors alike,
    with e = 0).  Coefficientwise, the absolute values of a product are at
    most those of the product of the absolute values, so the q^n
    coefficients of the expansion, summed in absolute value over all
    z-exponents (folded or not), are at most |scalar| times that of the
    absolute product.
    """
    parts = []
    for fac in spec.factors:
        if fac.exponent > 0:
            parts += _eta_form(2 * fac.q_offset, 2 * fac.q_step, fac.exponent)
        parts += _eta_form(fac.q_offset, fac.q_step, -abs(fac.exponent))
    absolute = expand_univariate(ProductSpec(tuple(parts)), precision)
    return (abs(spec.scalar) * max(absolute.coeffs)).bit_length()


def expand_bivariate(
    spec: ProductSpec, precision: int, z_mod: Optional[int] = None
) -> BivariateSeries:
    """Expand with the z marker kept.

    With ``z_mod`` set, z-exponents are reduced modulo it throughout,
    i.e. the expansion is taken in Z[z]/(z^z_mod - 1), and the series
    records that fold.  Residue buckets modulo a divisor of ``z_mod``
    agree with those of the full series, which keeps equidistribution
    checks cheap at large precision.

    Each q-degree row lies in Z[z]/(z^m - 1): m = ``z_mod``, or 2E + 1
    when E bounds |z-exponent| below q^precision, so that nothing wraps.
    A row is held as its value at z = 2^W, an int taken modulo
    R = 2^(mW) - 1, where z^m = 1; there, multiplying by z^e rotates the
    m lanes of W bits by e and is exact for either sign.  The rows start
    as the z-free factors' univariate expansion times scalar * z^z_shift,
    and each z-factor is applied to them in turn: dividing by
    (1 - z^e q^k) adds the rotated row i - k to row i, and multiplying by
    it subtracts.  So the rows end as the whole product, and no lane is
    multiplied afterwards.  W is ``_lane_width`` plus a sign bit, in
    whole bytes: every final lane c_i has |c_i| < 2^(W-1), so the row's
    value sum c_i 2^(iW) is the one residue in (-R/2, R/2], and its
    balanced digits are the lanes.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    if z_mod is not None and z_mod < 1:
        raise ValueError("z_mod must be >= 1")
    n = precision - spec.q_shift  # q-degrees of the packed product
    if n <= 0:
        return BivariateSeries(tuple({} for _ in range(precision)), z_mod)
    z_factors = [fac for fac in spec.factors if fac.z_exp]
    reach = abs(spec.z_shift) + max(
        (abs(fac.z_exp) * (n - 1) // fac.q_offset for fac in z_factors), default=0)
    m = z_mod or 2 * reach + 1
    width = (_lane_width(spec, n) + 8) // 8  # bytes per lane, sign bit included
    bits = 8 * width
    ring = (1 << m * bits) - 1  # R, where 2^(mW) = z^m = 1
    z_free = expand_univariate(
        ProductSpec(tuple(fac for fac in spec.factors if not fac.z_exp), spec.scalar), n)
    rows = [c << spec.z_shift % m * bits for c in z_free.coeffs]
    for fac in z_factors:
        left = fac.z_exp % m * bits  # multiplying by z^e rotates by e mod m
        right = m * bits - left
        for _ in range(abs(fac.exponent)):
            for k in range(fac.q_offset, n, fac.q_step):
                if fac.exponent < 0:
                    # divide by (1 - z^e q^k): ascending, row i reads the new row i - k
                    for i in range(k, n):
                        x = rows[i - k]
                        rows[i] += ((x << left) & ring) + (x >> right)
                else:
                    # multiply by (1 - z^e q^k): descending, row i reads the old row i - k
                    for i in range(n - 1, k - 1, -1):
                        x = rows[i - k]
                        rows[i] -= ((x << left) & ring) + (x >> right)
    half = ring >> 1  # a row's residue in (-R/2, R/2] is its value at z = 2^W
    lanes = (_unpack(r - ring if r > half else r, m, width)
             for r in (x % ring for x in rows))
    keys = range(m) if z_mod else [i if i <= reach else i - m for i in range(m)]
    return BivariateSeries(tuple([{} for _ in range(spec.q_shift)] + [
        {key: c for key, c in zip(keys, row) if c} for row in lanes]), z_mod)


def expand(
    spec: ProductSpec, precision: int, z_mod: Optional[int] = None
) -> Union[QSeries, BivariateSeries]:
    if spec.is_univariate and z_mod is None:
        return expand_univariate(spec, precision)
    return expand_bivariate(spec, precision, z_mod=z_mod)
