"""Facets, edges, and membership certificates for the convex hull of the
symmetric trigonometric moment curve.

The central object is the convex body B_{2k} = conv{SM_{2k}(theta)} where
SM_{2k}(theta) = (cos(theta), cos(3*theta), ..., cos((2k-1)*theta),
sin(theta), ..., sin((2k-1)*theta)).  The package verifies, numerically and
with linear-programming certificates, that the chord [SM(alpha), SM(beta)]
is an exposed edge of B_{2k} exactly when the arc between alpha and beta is
shorter than 2*pi*(k-1)/(2k-1), and realizes the supporting facet geometry,
trigonometric identities, and Hermitian-Toeplitz spectrahedral lift behind
that dichotomy.
"""

from trigmoment.angles import (
    Angle,
    as_angle,
    chebyshev_T,
    cos_at,
    cosine_curve,
    cosine_curve_deriv,
    rational_angle,
    real_angle,
    sin_at,
    symmetric_curve,
)
from trigmoment.facets import (
    AffineFunctional,
    ConvexCombination,
    SimplexSpec,
    facet_curve_poly,
    facet_curve_roots,
    facet_functional,
    facet_nodes,
    inner_simplex,
    origin_witness,
    outer_simplex,
    trig_identity_residual,
    verify_facet_description,
)
from trigmoment.lp import LinearProgram, LPCertificate, lp_solve
from trigmoment.hull import (
    EdgeCertificate,
    HullVerdict,
    exposed_edge_certificate,
    in_hull,
    interiority_probe,
    tangent_cone_interior,
)
from trigmoment.toeplitz import (
    MembershipVerdict,
    min_eigenvalue,
    toeplitz_assemble,
    toeplitz_membership,
)
from trigmoment.edges import (
    EdgeVerdict,
    ThresholdEstimate,
    edge_threshold,
    edge_verdict,
    estimate_threshold,
    facet_contact_check,
    midpoint_interiority,
)

__version__ = "0.1.0"
