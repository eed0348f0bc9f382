"""Series that only the tests use."""

from qdissect.products import Factor, ProductSpec
from qdissect.series import QSeries


def kim_star_spec() -> ProductSpec:
    """f_1 / ((zq; q)(z^-1 q; q)); the one-component crank carrier on P*."""
    return ProductSpec((
        Factor(1, 1, 1),
        Factor(1, 1, -1, z_exp=1),
        Factor(1, 1, -1, z_exp=-1),
    ))


def specialize_z_one(series) -> QSeries:
    """A bivariate series at z = 1: each q-degree's coefficients summed."""
    return QSeries(tuple(sum(row.values()) for row in series.rows))
