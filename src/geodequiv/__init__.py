"""Commuting first integrals for geodesically equivalent metric pairs.

Given two Riemannian metrics on a coordinate chart that share all
unparametrised geodesics, the quotient construction turns the pair into a
full family of conserved quantities in involution for the geodesic flow.
This package evaluates that family, the companion polynomial factory built
from the trajectorial rescaling map, and the numerical checks (conservation,
involution, independence, coincidence of geodesics) on symbolic metric input.
"""

from .catalog import resolve_pair
from .geometry import GeodesicOptions, geodesic_coincidence, integrate_geodesic
from .hamilton import conservation_drift
from .integrals import independence_rank, integrals_at, integrals_jacobian, involution_matrix

__version__ = "0.1.0"

# the names of the README's library tour; everything else is imported from
# its module (geodequiv.dsl, geodequiv.geometry, ...)
__all__ = [
    "GeodesicOptions",
    "conservation_drift",
    "geodesic_coincidence",
    "independence_rank",
    "integrals_at",
    "integrals_jacobian",
    "integrate_geodesic",
    "involution_matrix",
    "resolve_pair",
]
