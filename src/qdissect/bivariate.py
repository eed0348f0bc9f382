"""Per-q-degree Laurent polynomials in a marker variable z.

Used to carry rank/crank generating functions: the coefficient of
z^m q^n is a weighted count of vector partitions of n with statistic m.
Residue bucketing replaces root-of-unity specializations.
"""

from __future__ import annotations

from typing import Optional

from ._record import record
from .series import QSeries


@record(frozen=True)
class BivariateSeries:
    """``rows[n]`` maps z-exponent to the coefficient of z^m q^n.

    Stored entries are nonzero; absent exponents mean zero.  Treat the
    row dicts as immutable.  A series folded in Z[z]/(z^z_mod - 1) records
    ``z_mod``, and its exponents are the residues 0 .. z_mod - 1.
    """

    rows: tuple
    z_mod: Optional[int] = None

    @property
    def precision(self) -> int:
        return len(self.rows)

    def coefficient(self, n: int, m: int) -> int:
        if not 0 <= n < len(self.rows):
            raise IndexError(
                f"q-degree {n} is outside known precision {len(self.rows)}"
            )
        return self.rows[n].get(m % self.z_mod if self.z_mod else m, 0)

    def z_coefficients(self, n: int) -> dict:
        if not 0 <= n < len(self.rows):
            raise IndexError(
                f"q-degree {n} is outside known precision {len(self.rows)}"
            )
        return dict(self.rows[n])

    def residue_buckets(self, m: int) -> list:
        """m univariate series; bucket k collects z-exponents == k (mod m).
        A folded series has buckets only modulo a divisor of its fold."""
        if m < 1:
            raise ValueError("bucket modulus must be >= 1")
        if self.z_mod and self.z_mod % m:
            raise ValueError(
                f"a series folded mod {self.z_mod} has no buckets mod {m}")
        buckets = [[0] * len(self.rows) for _ in range(m)]
        for n, row in enumerate(self.rows):
            for e, c in row.items():
                buckets[e % m][n] += c
        return [QSeries(tuple(b)) for b in buckets]

    def is_z_symmetric(self) -> bool:
        """True if every q-degree is invariant under z -> 1/z (for a folded
        series, under e -> -e mod z_mod)."""
        fold = self.z_mod
        return all(
            all(row.get(-e % fold if fold else -e, 0) == c for e, c in row.items())
            for row in self.rows
        )
