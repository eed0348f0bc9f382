"""Exact truncated formal power series over Z or over Z/MZ.

A series of precision N stores the coefficients of q^0 .. q^(N-1) and
claims nothing about anything beyond that range.  Binary operations
return the minimum precision of their operands, so precision loss is
always explicit and no operation silently reads unknown coefficients.

A series with a ``modulus`` M holds the residues mod M of its
coefficients, each in [0, M).  Reduction mod M commutes with sums,
products, powers and inverses of units, so a reduced expansion is the
exact residue of the integer one.

Products of long series go through Kronecker substitution: each operand
is packed into one big integer, one digit per coefficient, and the
digits of the product are the coefficients of the product.  A digit is
as wide as the exact bound B = min(len a, len b) * max|a| * max|b| on
those coefficients requires: B.bit_length() bits, in whole bytes, and
one sign bit more when an operand has a negative coefficient.  Every
operand on the mod-M route is a residue, so those products take the
unsigned digits, about 2*log2(M) + log2(N) bits wide.  Digits of up to 8
bytes are packed and read by ``array`` in C, with no Python call per
coefficient; wider ones cost one ``to_bytes``/``from_bytes`` each.
"""

from __future__ import annotations

import sys
from array import array
from typing import Optional, Sequence

from ._record import record


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term is not +1 or -1."""


_PACKED_CUTOFF = 20

# The unsigned array typecodes by item size, which the platform decides:
# a lane of w <= 8 bytes is converted in C by the first code of size >= w.
_ARRAY_CODES = sorted((array(code).itemsize, code) for code in "BHILQ")
_BIG_ENDIAN = sys.byteorder == "big"


def _convolve_schoolbook(a: Sequence[int], b: Sequence[int], out_len: int) -> list:
    out = [0] * out_len
    for i, ai in enumerate(a):
        if not ai:
            continue
        top = min(len(b), out_len - i)
        for j in range(top):
            out[i + j] += ai * b[j]
    return out


def _array_code(width: int) -> Optional[str]:
    return next((code for size, code in _ARRAY_CODES if size >= width), None)


def _pack(values: Sequence[int], width: int) -> int:
    """sum of values[i] * 2^(8*width*i), for values in [0, 2^(8*width)):
    array items narrowed to ``width`` bytes by strided copies, or one
    ``to_bytes`` per value for lanes wider than every array item."""
    code = _array_code(width)
    if code is None:
        return int.from_bytes(
            b"".join([v.to_bytes(width, "little") for v in values]), "little")
    items = array(code, values)
    if _BIG_ENDIAN:
        items.byteswap()
    raw = items.tobytes()
    size = items.itemsize
    if size == width:
        return int.from_bytes(raw, "little")
    lanes = bytearray(len(items) * width)
    for j in range(width):
        lanes[j::width] = raw[j::size]
    return int.from_bytes(lanes, "little")


def _pack_signed(values: Sequence[int], width: int) -> int:
    """``_pack`` of signed values, |v| < 2^(8*width): the positive part
    packed minus the negative part packed."""
    return _pack([v if v > 0 else 0 for v in values], width) - _pack(
        [-v if v < 0 else 0 for v in values], width
    )


def _unpack(x: int, count: int, width: int, signed: bool = True) -> list:
    """The lowest ``count`` digits of ``x`` in base 2^(8*width), lowest
    first: balanced digits d with -2^(8*width - 1) <= d < 2^(8*width - 1)
    when ``signed``, else digits in [0, 2^(8*width)).

    A balanced digit is read with no carry: adding half a lane to every
    lane makes each digit d + half, in [0, 2^(8*width)), and the lowest
    ``count`` lanes of that sum, taken mod 2^(8*width*count) (which also
    drops whatever lies above them, of either sign), are unsigned.
    """
    nbytes = count * width
    if signed:
        x += int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = (x & ((1 << 8 * nbytes) - 1)).to_bytes(nbytes, "little")
    code = _array_code(width)
    if code is None:
        out = [int.from_bytes(raw[i : i + width], "little")
               for i in range(0, nbytes, width)]
    else:
        items = array(code)
        size = items.itemsize
        if size != width:
            wide = bytearray(count * size)
            for j in range(width):
                wide[j::size] = raw[j::width]
            raw = wide
        items.frombytes(raw)
        if _BIG_ENDIAN:
            items.byteswap()
        out = items.tolist()
    if not signed:
        return out
    half = 1 << (8 * width - 1)
    return [v - half for v in out]


def _convolve_packed(a: Sequence[int], b: Sequence[int], out_len: int) -> list:
    """Convolution via Kronecker substitution.

    Both polynomials are packed into single big integers (one digit of
    8*width bits per coefficient), multiplied once, and the product
    coefficients are read back from the digits.  Every coefficient of the
    product is at most B = min(len a, len b) * max|a| * max|b| in
    magnitude, so a digit of B.bit_length() bits holds it when both
    operands are nonnegative (residues mod M), and one sign bit more
    holds a balanced digit otherwise.  A nonnegative operand packs once,
    a signed one by its two parts, and the same operand (a square) is
    packed once for both sides.
    """
    lo_a, hi_a = min(a), max(a)
    lo_b, hi_b = (lo_a, hi_a) if b is a else (min(b), max(b))
    bound = min(len(a), len(b)) * max(hi_a, -lo_a) * max(hi_b, -lo_b)
    if not bound:
        return [0] * out_len
    signed = lo_a < 0 or lo_b < 0
    width = (bound.bit_length() + signed + 7) // 8
    x = _pack(a, width) if lo_a >= 0 else _pack_signed(a, width)
    if b is a:
        y = x  # CPython squares an int multiplied by itself, which is faster
    else:
        y = _pack(b, width) if lo_b >= 0 else _pack_signed(b, width)
    return _unpack(x * y, out_len, width, signed)


def _convolve(
    a: Sequence[int], b: Sequence[int], out_len: int, modulus: Optional[int] = None
) -> list:
    """The first ``out_len`` coefficients of a*b, reduced mod ``modulus``
    when one is given."""
    if out_len == 0:
        return []
    if min(len(a), len(b), out_len) < _PACKED_CUTOFF:
        out = _convolve_schoolbook(a, b, out_len)
    else:
        out = _convolve_packed(a, b, out_len)
    return out if modulus is None else [v % modulus for v in out]


@record(frozen=True)
class QSeries:
    """Truncated power series; ``coeffs[n]`` is the coefficient of q^n.

    ``modulus`` None means the coefficients are integers; an integer
    M >= 2 means they are residues mod M, reduced into [0, M) on
    construction.  Binary operations require both operands to share it.
    """

    coeffs: tuple
    modulus: Optional[int] = None

    def __init__(self, coeffs, modulus: Optional[int] = None):
        if modulus is not None:
            if modulus < 2:
                raise ValueError(f"series modulus must be >= 2, got {modulus}")
            coeffs = tuple([c % modulus for c in coeffs])
        object.__setattr__(self, "coeffs", coeffs if isinstance(coeffs, tuple) else tuple(coeffs))
        object.__setattr__(self, "modulus", modulus)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, precision: int, modulus: Optional[int] = None) -> "QSeries":
        return cls((0,) * precision, modulus)

    @classmethod
    def one(cls, precision: int, modulus: Optional[int] = None) -> "QSeries":
        if precision == 0:
            return cls((), modulus)
        return cls((1,) + (0,) * (precision - 1), modulus)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self.coeffs):
            raise IndexError(
                f"coefficient of q^{n} is outside known precision {len(self.coeffs)}"
            )
        return self.coeffs[n]

    def _common_modulus(self, other: "QSeries") -> Optional[int]:
        if self.modulus != other.modulus:
            raise ValueError(
                f"cannot combine series over {_ring(self.modulus)} and "
                f"over {_ring(other.modulus)}"
            )
        return self.modulus

    def __add__(self, other: "QSeries") -> "QSeries":
        m = self._common_modulus(other)
        p = min(len(self.coeffs), len(other.coeffs))
        return QSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(p)), m)

    def __sub__(self, other: "QSeries") -> "QSeries":
        m = self._common_modulus(other)
        p = min(len(self.coeffs), len(other.coeffs))
        return QSeries(tuple(self.coeffs[i] - other.coeffs[i] for i in range(p)), m)

    def __neg__(self) -> "QSeries":
        return QSeries(tuple(-c for c in self.coeffs), self.modulus)

    def __mul__(self, other: "QSeries") -> "QSeries":
        m = self._common_modulus(other)
        p = min(len(self.coeffs), len(other.coeffs))
        # the constructor reduces mod m, so the product is reduced once
        return QSeries(tuple(_convolve(self.coeffs[:p], other.coeffs[:p], p)), m)

    def scale(self, c: int) -> "QSeries":
        return QSeries(tuple(c * v for v in self.coeffs), self.modulus)

    def shift(self, j: int) -> "QSeries":
        """Multiply by q^j.  The result gains j known coefficients."""
        if j < 0:
            raise ValueError("shift exponent must be nonnegative")
        return QSeries((0,) * j + self.coeffs, self.modulus)

    def truncate(self, n: int) -> "QSeries":
        """The first ``n`` coefficients; the series itself, which is frozen,
        when it has exactly ``n``."""
        if not 0 <= n <= len(self.coeffs):
            raise ValueError(
                f"cannot truncate precision {len(self.coeffs)} series to {n}"
            )
        return self if n == len(self.coeffs) else QSeries(self.coeffs[:n], self.modulus)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse, by Newton iteration.

        Requires constant term +1 or -1, mod M for a reduced series
        (every Pochhammer product here is such a unit).  Precision is
        preserved.
        """
        p = len(self.coeffs)
        if p == 0:
            return self
        c0, m = self.coeffs[0], self.modulus
        if c0 not in ((1, -1) if m is None else (1, m - 1)):
            raise NonUnitError(f"constant term {c0} is not a unit")
        g = [c0]  # c0 * c0 == 1: c0 is its own inverse
        k = 1
        while k < p:
            k = min(2 * k, p)
            fg = _convolve(self.coeffs[:k], g, k, m)
            fg[0] -= 2
            # t = 2 - fg, taken as residues mod M so that g * t is unsigned
            t = [-v for v in fg] if m is None else [-v % m for v in fg]
            g = _convolve(g, t, k, m)
        return QSeries(tuple(g), m)

    def power(self, e: int) -> "QSeries":
        if e < 0:
            return self.power(-e).inverse()
        if e == 0:
            return QSeries.one(len(self.coeffs), self.modulus)
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def substitute_power(self, k: int) -> "QSeries":
        """Replace q by q^k; the result has precision k * precision."""
        if k < 1:
            raise ValueError("substitution exponent must be >= 1")
        out = [0] * (len(self.coeffs) * k)
        for n, c in enumerate(self.coeffs):
            out[n * k] = c
        return QSeries(tuple(out), self.modulus)

    def dissect(self, m: int, r: int) -> "QSeries":
        """Extract the coefficients along n = m*j + r as a new series."""
        if m < 1:
            raise ValueError("dissection modulus must be >= 1")
        if not 0 <= r < m:
            raise ValueError(f"residue {r} out of range for modulus {m}")
        return QSeries(self.coeffs[r::m], self.modulus)

    def to_decimal_strings(self) -> list:
        """Coefficients as decimal strings, for JSON consumers."""
        return [str(c) for c in self.coeffs]


def _ring(modulus: Optional[int]) -> str:
    return "Z" if modulus is None else f"Z/{modulus}Z"


def product(factors, precision: int, modulus: Optional[int] = None) -> QSeries:
    """The product of the series in ``factors``, multiplied left to right;
    one at ``precision`` (mod ``modulus``) when there is none."""
    result = None
    for factor in factors:
        result = factor if result is None else result * factor
    return QSeries.one(precision, modulus) if result is None else result


@record(frozen=True)
class SeriesComparison:
    equal: bool
    index: Optional[int] = None
    left: Optional[int] = None
    right: Optional[int] = None


def equal_upto(a: QSeries, b: QSeries, n: int) -> SeriesComparison:
    """Compare coefficients for 0 <= i < n; residues mod M compare as
    residues.

    Comparing unknown coefficients, or series over different rings, is a
    hard error, never a silent pass.
    """
    a._common_modulus(b)
    if n > min(a.precision, b.precision):
        raise ValueError(
            f"cannot compare {n} coefficients: precisions are "
            f"{a.precision} and {b.precision}"
        )
    for i in range(n):
        if a.coeffs[i] != b.coeffs[i]:
            return SeriesComparison(False, i, a.coeffs[i], b.coeffs[i])
    return SeriesComparison(True)


def pentagonal_terms(precision: int, k: int = 1) -> list:
    """The (exponent, sign) pairs of f_k = (q^k; q^k)_inf below q^precision,
    by increasing exponent: Euler's generalized pentagonal exponents
    k*j*(3j -+ 1)/2 with sign (-1)^j, O(sqrt(precision / k)) of them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if precision < 0:
        raise ValueError("precision must be >= 0")
    terms = []
    j = 0
    while True:
        g = k * j * (3 * j - 1) // 2  # the exponent of j; g + k*j is that of -j
        if g >= precision:
            return terms
        sign = -1 if j % 2 else 1
        terms.append((g, sign))
        if j and g + k * j < precision:
            terms.append((g + k * j, sign))
        j += 1


def pentagonal_sum(precision: int, k: int = 1) -> QSeries:
    """f_k = (q^k; q^k)_inf as the signed sum over generalized pentagonal
    numbers (Euler); the expansion of every eta factor."""
    out = [0] * precision
    for g, sign in pentagonal_terms(precision, k):
        out[g] = sign
    return QSeries(tuple(out))


def cube_terms(precision: int, k: int = 1) -> list:
    """The (exponent, coefficient) pairs of f_k^3 below q^precision, by
    increasing exponent: by Jacobi, f_k^3 is the sum over j >= 0 of
    (-1)^j (2j+1) q^(k*j(j+1)/2), O(sqrt(precision / k)) terms."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if precision < 0:
        raise ValueError("precision must be >= 0")
    terms = []
    j = 0
    while k * j * (j + 1) // 2 < precision:
        terms.append((k * j * (j + 1) // 2, -(2 * j + 1) if j % 2 else 2 * j + 1))
        j += 1
    return terms


def _divide_sparse(h: list, terms: list) -> None:
    """Divide h in place by 1 + the sum of c * q^p over ``terms``, the
    (p, c) pairs with p > 0 by increasing p: h[n] -= c * h[n - p] for
    each term with p <= n, by ascending n.  From the i-th exponent to
    the next, the first i + 1 terms take part.  Terms that are all +-1
    (Euler's) take plain additions and subtractions, with no product."""
    ends = [p for p, _ in terms[1:]] + [len(h)]
    unit = all(c in (1, -1) for _, c in terms)
    for i, (start, _) in enumerate(terms):
        active = terms[: i + 1]
        if unit:
            added = [p for p, c in active if c < 0]
            subtracted = [p for p, c in active if c > 0]
            for n in range(start, ends[i]):
                acc = h[n]
                for p in added:
                    acc += h[n - p]
                for p in subtracted:
                    acc -= h[n - p]
                h[n] = acc
        else:
            negated = [(p, -c) for p, c in active]
            for n in range(start, ends[i]):
                acc = h[n]
                for p, c in negated:
                    acc += c * h[n - p]
                h[n] = acc


def divide_by_eta(series: QSeries, k: int, times: int = 1) -> QSeries:
    """``series`` / f_k^times by sparse division, with no product and no
    inversion: h = g / s solves s * h = g, so h[n] = g[n] minus the sum
    of c * h[n - p] over the terms c q^p of s with 0 < p <= n.  Each
    times // 3 divides by f_k^3 (Jacobi, ``cube_terms``), and each of the
    times % 3 left by f_k (Euler, ``pentagonal_terms``).  Precision and
    modulus are preserved."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if times < 0:
        raise ValueError("times must be >= 0")
    h = list(series.coeffs)
    for terms, passes in ((cube_terms, times // 3), (pentagonal_terms, times % 3)):
        if passes:
            divisor = terms(len(h), k)[1:]  # all but the constant term 1
            for _ in range(passes):
                _divide_sparse(h, divisor)
    return QSeries(tuple(h), series.modulus)


def pochhammer_series(q_offset: int, q_step: int, precision: int) -> QSeries:
    """Truncation of the infinite product prod_{n>=0} (1 - q^(q_offset + n*q_step)).

    Computed factor by factor; this is the product-form oracle that the
    closed theta/pentagonal sums are tested against.
    """
    if q_offset < 1:
        raise ValueError("q_offset must be >= 1")
    if q_step < 1:
        raise ValueError("q_step must be >= 1")
    if precision < 0:
        raise ValueError("precision must be >= 0")
    if precision == 0:
        return QSeries(())
    coeffs = [0] * precision
    coeffs[0] = 1
    for k in range(q_offset, precision, q_step):
        for n in range(precision - 1, k - 1, -1):
            coeffs[n] -= coeffs[n - k]
    return QSeries(tuple(coeffs))
