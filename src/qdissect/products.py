"""Symbolic eta-quotient / Pochhammer-product descriptions and their expansion.

A ProductSpec is a product of generalized Pochhammer symbols
(z^zExp q^a; q^b)_inf^e, optionally times a leading monomial
scalar * z^j q^k.  Expansion to any precision is exact; an eta factor
f_k = (q^k; q^k) comes from Euler's pentagonal sum.  Over the integers
the expansion divides by each f_k^t in the denominator by sparse
division (``series.divide_by_eta``: t // 3 passes over Jacobi's terms of
f_k^3 and t % 3 over Euler's of f_k); taken mod M, and for any
denominator factor that is not an eta factor, it inverts the product of
the denominator by Newton iteration (every factor is a unit with
constant term 1).  A univariate expansion mod M gives exact residues.

A bivariate expansion holds each q-degree row as one big integer
modulo 2^(mW) - 1, the row's value at z = 2^W in Z[z]/(z^m - 1)
(Kronecker substitution along z).  There z^m = 1, so multiplying by z^e
is a rotation of the m lanes of W bits, exact for either sign.  A
mirrored pair of divisions (x q^a; q^b)^-k (x^-1 q^a; q^b)^-k, x = z^e,
is by the Jacobi triple product a quotient by a theta series with
O(sqrt N) terms below q^N:

    (x q^a; q^2a)(x^-1 q^a; q^2a) = theta_a(x) / f_2a,
        theta_a(x) = sum_n (-1)^n x^n q^(a n^2);
    (x q^a; q^a)(x^-1 q^a; q^a) = C_a(x) / f_a,
        C_a(x) = sum_{j>=1} (-1)^(j+1) q^(a j(j-1)/2) (x^(1-j) + ... + x^(j-1)).

So f_2a^k or f_a^k joins the z-free factors, whose univariate expansion
starts the rows, and the rows are divided k times by the sparse series,
each q-term costing two shifts of a row.  Any other z-factor
(1 - z^e q^k) costs one rotation and one addition or subtraction per
row.  One sign bit above the coefficient bound makes each final row's
balanced digits its lanes.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from ._record import record
from .bivariate import BivariateSeries
from .series import (QSeries, _unpack, divide_by_eta, pentagonal_sum,
                     pochhammer_series, product)


@record(frozen=True)
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


@record(frozen=True)
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
    in Z/MZ too).  Over Z, ``divide_by_eta`` divides out each eta factor
    f_k^t of the denominator, three powers per pass over the sparse terms
    of f_k^3 and one per pass over those of f_k, avoiding Newton products
    of coefficients hundreds of bits wide; mod M those products stay
    narrow and are the faster route.
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


def _mirror_pairs(z_factors: list) -> tuple:
    """(pairs, rest): each pair is given by one member (z^e q^a; q^b)^-k,
    b = a or 2a, whose mirror (z^-e q^a; q^b)^-k was also in ``z_factors``;
    ``rest`` holds every factor left unpaired."""
    pending, pairs, rest = list(z_factors), [], []
    while pending:
        fac = pending.pop()
        mirror = Factor(fac.q_offset, fac.q_step, fac.exponent, -fac.z_exp)
        if (fac.exponent < 0 and fac.q_step in (fac.q_offset, 2 * fac.q_offset)
                and mirror in pending):
            pending.remove(mirror)
            pairs.append(fac)
        else:
            rest.append(fac)
    return pairs, rest


def _jacobi_terms(fac: Factor, n: int) -> list:
    """(p, t, negative) for each q^p term, 0 < p < n, of the series that
    the pair of ``fac`` divides by, theta_a(x) or C_a(x) with x = z^e.
    Dividing adds -d_p(z) times row i - p to row i, where -d_p is
    +-(x^t + x^-t) for theta_a, and +-(1 + sum_{s=1..t} (x^s + x^-s)) for
    C_a; ``negative`` gives the sign."""
    a, theta = fac.q_offset, fac.q_step == 2 * fac.q_offset
    terms = []
    for j in itertools.count(1 if theta else 2):
        p = a * j * j if theta else a * j * (j - 1) // 2
        if p >= n:
            return terms
        # -d_p is (-1)^(j+1) (x^j + x^-j), or (-1)^j (x^(1-j) + ... + x^(j-1))
        terms.append((p, j if theta else j - 1, (j % 2 == 0) == theta))


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
    m lanes of W bits by e and is exact for either sign.

    Every division (z^e q^a; q^b)^-k whose mirror (z^-e q^a; q^b)^-k is
    also a factor, with b = 2a or b = a, pairs with it: the pair is
    f_b^k / theta_a(z^e)^k or f_b^k / C_a(z^e)^k (module docstring).  The
    rows start as the univariate expansion of the z-free factors, each
    f_b^k included, times scalar * z^z_shift.  Each unpaired z-factor is
    applied in turn: dividing by (1 - z^e q^k) adds the rotated row i - k
    to row i, and multiplying by it subtracts.  Then, k times per pair,
    row i -= sum_p d_p(z) row i - p in ascending i.  A theta term
    d_p = -+(z^(et) + z^(-et)) is two shifts, reduced mod R by two folds of
    the finished row.  A C term, -+(1 + sum_{s=1..t} (z^(es) + z^(-es))),
    needs no product: over the terms in descending p, the running sum of
    the signed rows is shifted by +-et, and added once more at the end.

    The map from Z[z]/(z^m - 1) to Z/RZ sending z to 2^W is a ring
    homomorphism, and each theta series has constant term 1, so the rows
    end as the image of the whole product whatever the intermediate
    values.  W is ``_lane_width`` of ``spec`` plus a sign bit, in whole
    bytes: every final lane c_i has |c_i| < 2^(W-1), so the row's value
    sum c_i 2^(iW) is the one residue in (-R/2, R/2], and its balanced
    digits are the lanes.
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
    ring_bits = m * bits
    ring = (1 << ring_bits) - 1  # R, where 2^(mW) = z^m = 1
    pairs, rest = _mirror_pairs(z_factors)
    z_free = expand_univariate(ProductSpec(
        tuple(fac for fac in spec.factors if not fac.z_exp)
        + tuple(f(fac.q_step, -fac.exponent) for fac in pairs), spec.scalar), n)
    rows = [c << spec.z_shift % m * bits for c in z_free.coeffs]
    for fac in rest:
        left = fac.z_exp % m * bits  # multiplying by z^e rotates by e mod m
        right = ring_bits - left
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
    for fac in pairs:
        cumulative = fac.q_step == fac.q_offset  # a C_a term sums monomial pairs
        terms = [(p, fac.z_exp * t % m * bits, -fac.z_exp * t % m * bits, negative)
                 for p, t, negative in _jacobi_terms(fac, n)]
        for _ in range(-fac.exponent):
            active = 0
            for i in range(fac.q_offset, n):
                while active < len(terms) and terms[active][0] <= i:
                    active += 1
                acc, x = rows[i], 0
                for p, left, right, negative in terms[active - 1::-1]:
                    y = rows[i - p]
                    if cumulative:
                        x = x - y if negative else x + y
                    else:
                        x = -y if negative else y
                    acc += (x << left) + (x << right)  # times z^et + z^-et
                if cumulative:
                    acc += x  # the 1 in every C_a term
                acc = (acc & ring) + (acc >> ring_bits)  # 2^(mW) = 1: fold twice,
                rows[i] = (acc & ring) + (acc >> ring_bits)  # leaving the row near R
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
