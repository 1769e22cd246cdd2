"""End-to-end edge verdicts for the hull of the symmetric trigonometric
moment curve, empirical recovery of the edge-length threshold, and the
facet-contact check behind the threshold's parity argument.

The chord [SM(alpha), SM(beta)] is an exposed edge of the hull exactly when
the arc between alpha and beta is shorter than 2*pi*(k-1)/(2k-1).  Because
the hull is invariant under rotating the curve parameter, any chord can be
slid to the symmetric pair (-theta, theta); its midpoint is then
(C_k(theta), 0), so edge-ness is visible in the cosine-curve hull alone:
midpoints of edges sit on the boundary, midpoints of non-edges in the
interior.  The estimator bisects that boundary-to-interior transition; the
verdict function cross-checks the predicted side with an explicit LP
certificate (supporting functional or interiority witness) and refuses to
silently reconcile disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trigmoment.angles import (
    Angle,
    arc_distance,
    as_angle,
    cos_at,
    cosine_curve,
    cosine_curve_deriv,
    cosine_curve_samples,
    rational_angle,
)
from trigmoment.facets import facet_curve_poly, facet_curve_roots, outer_simplex
from trigmoment.hull import (
    MARGIN_TOL,
    EdgeCertificate,
    HullVerdict,
    exposed_edge_certificate,
    interiority_probe,
    tangent_cone_interior,
)

GUARD_BAND = 0.02   # radians around the threshold where verdicts abstain
PROBE_DELTA = 1e-5  # probe displacement for midpoint interiority

__all__ = [
    "GUARD_BAND",
    "PROBE_DELTA",
    "EvidenceContradictionError",
    "EdgeVerdict",
    "ThresholdEstimate",
    "FacetContactReport",
    "edge_threshold",
    "midpoint_interiority",
    "estimate_threshold",
    "edge_verdict",
    "facet_contact_check",
]


class EvidenceContradictionError(RuntimeError):
    """Numerical evidence disagrees with the predicted edge structure.

    Raised instead of silently picking a side: it signals sampling failure
    or numerical trouble, not a borderline case (those get "near_threshold").
    """


def edge_threshold(k: int) -> float:
    """Critical arc length 2*pi*(k-1)/(2k-1) separating edges from non-edges."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 2.0 * math.pi * (k - 1) / (2 * k - 1)


@dataclass(frozen=True, eq=False)
class EdgeVerdict:
    """Verdict on one chord, with the LP evidence that backs it.

    "edge" carries a supporting-functional certificate, "not_edge" a
    midpoint-interiority witness, and "near_threshold" (arc within the guard
    band of the critical length) carries neither.
    """

    k: int
    alpha: float
    beta: float
    arc_length: float
    threshold: float
    verdict: str
    certificate: EdgeCertificate | None = None
    midpoint_witness: HullVerdict | None = None

    @property
    def is_edge(self) -> bool:
        return self.verdict == "edge"


@dataclass(frozen=True, eq=False)
class ThresholdEstimate:
    """Bisection output: ``bracket`` encloses the arc length at which chord
    midpoints turn from boundary to interior points of the *sampled* cosine
    hull under probes of displacement delta, and ``psi_hat`` is the bracket
    midpoint.

    Two causes move that transition up, so the bracket need not contain
    the critical arc itself: a midpoint reads "interior" only once every
    probe delta away stays in the hull, and the sampled hull lies inside
    the body.  For k = 2..5 at 4000/4000/5000/6000 samples the bracket lies
    wholly at or above psi_k (k = 2: (2.09732, 2.09791) against 2.09440).
    At k = 2 the probe sets the bias: at resolution 1e-4 the low end sits
    +2.93e-3 above psi_2 at both 4000 and 16 000 samples, and +2.93e-4 at
    delta = 1e-7.  At k = 4 more samples narrow it too."""

    k: int
    psi_hat: float
    bracket: tuple
    samples_used: int

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def midpoint_interiority(k: int, theta, num_samples: int = 2000,
                         delta: float = PROBE_DELTA) -> HullVerdict:
    """Probe where the chord midpoint (C_k(theta), 0) sits relative to the
    cosine-curve hull.

    The chord [SM(-theta), SM(theta)] has midpoint (C_k(theta), 0), and the
    slice {y = 0} of the full hull is the hull of the cosine curve, so the
    probe runs in R^k against cosine samples.  Evenness of cosine makes
    [0, pi] a complete sampling domain.  "boundary" is the edge regime,
    "interior" the non-edge regime.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if num_samples < 500:
        raise ValueError(f"num_samples must be >= 500, got {num_samples}")
    ang = as_angle(theta)
    folded = float(arc_distance(ang.value, 0.0))  # cos(2*pi - t) = cos(t)
    thetas = np.unique(np.concatenate([np.linspace(0.0, math.pi, num_samples),
                                       [folded]]))
    samples = cosine_curve_samples(k, thetas)
    query = cosine_curve(k, ang)
    return interiority_probe(query, samples, delta)


def estimate_threshold(k: int, num_samples: int = 4000,
                       resolution: float = 1e-3,
                       delta: float = PROBE_DELTA) -> ThresholdEstimate:
    """Recover the critical arc length by bisecting the midpoint transition.

    Half-arcs theta with midpoint on the boundary are below the threshold,
    interior midpoints above; the transition on (0, pi/2] is bisected until
    the arc bracket is narrower than ``resolution``.  The closed form seeds
    the first bracket, arcs edge_threshold(k) +- 0.3; a 60-point scan of
    (0, pi/2] is used if its endpoints do not straddle, and a non-monotone
    verdict pattern there raises EvidenceContradictionError.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if num_samples < 1000:
        raise ValueError(f"num_samples must be >= 1000, got {num_samples}")
    if not resolution >= 1e-4:
        raise ValueError(f"resolution must be >= 1e-4, got {resolution}")

    def is_interior(theta: float) -> bool:
        verdict = midpoint_interiority(k, theta, num_samples, delta).verdict
        if verdict == "outside":
            raise EvidenceContradictionError(
                f"midpoint at half-arc {theta:.6f} fell outside the sampled hull"
            )
        return verdict == "interior"

    psi = edge_threshold(k)
    lo = 0.5 * (psi - 0.3)
    hi = min(0.5 * (psi + 0.3), 0.5 * math.pi)
    if is_interior(lo) or not is_interior(hi):
        # Seeded bracket failed; scan the whole half-arc range.
        grid = np.linspace(0.02, 0.5 * math.pi, 60)
        flags = [is_interior(t) for t in grid]
        if not flags[-1] or flags[0] or any(
            a and not b for a, b in zip(flags, flags[1:])
        ):
            raise EvidenceContradictionError(
                "boundary-to-interior transition not found exactly once on "
                f"(0, pi/2] for k={k}; verdict pattern {flags}"
            )
        first_true = flags.index(True)
        lo, hi = float(grid[first_true - 1]), float(grid[first_true])

    while hi - lo >= 0.5 * resolution:
        mid = 0.5 * (lo + hi)
        if is_interior(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(k, psi_hat=lo + hi, bracket=(2.0 * lo, 2.0 * hi),
                             samples_used=num_samples)


def edge_verdict(k: int, alpha, beta, num_samples: int = 2000) -> EdgeVerdict:
    """Classify the chord [SM(alpha), SM(beta)] with cross-checked evidence.

    Outside a guard band of GUARD_BAND radians around the critical arc
    length, the predicted side must be confirmed: a supporting functional
    for edges, a midpoint interiority witness for non-edges.  Unconfirmed predictions
    raise EvidenceContradictionError.  Inside the band the verdict is
    "near_threshold" with no evidence either way.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if num_samples < 500:
        raise ValueError(f"num_samples must be >= 500, got {num_samples}")
    a = as_angle(alpha)
    b = as_angle(beta)
    arc = float(arc_distance(a.value, b.value))
    if arc < 1e-12:
        raise ValueError("alpha and beta must be distinct points on the circle")
    threshold = edge_threshold(k)
    base = dict(k=k, alpha=a.value, beta=b.value, arc_length=arc,
                threshold=threshold)

    if abs(arc - threshold) < GUARD_BAND:
        return EdgeVerdict(verdict="near_threshold", **base)
    if arc < threshold:
        certificate = exposed_edge_certificate(k, a, b, num_samples)
        if certificate is None:
            raise EvidenceContradictionError(
                f"arc {arc:.6f} < threshold {threshold:.6f} predicts an edge, "
                f"but no supporting functional with margin > {MARGIN_TOL:g} "
                "was found"
            )
        return EdgeVerdict(verdict="edge", certificate=certificate, **base)
    witness = midpoint_interiority(k, 0.5 * arc, num_samples)
    if witness.verdict != "interior":
        raise EvidenceContradictionError(
            f"arc {arc:.6f} > threshold {threshold:.6f} predicts a non-edge, "
            f"but the chord midpoint probe returned {witness.verdict!r}"
        )
    return EdgeVerdict(verdict="not_edge", midpoint_witness=witness, **base)


@dataclass(frozen=True, eq=False)
class FacetContactReport:
    """Per-clause outcome of the facet-contact consistency check."""

    k: int
    contact_angle: Angle
    hyperplane_residual: float
    hyperplane_ok: bool
    tangent_status: str  # "pass", "fail", or "trivial-pass"
    tangent_step: float | None
    sign_pattern_ok: bool
    sign_failures: tuple

    @property
    def passed(self) -> bool:
        return (
            self.hyperplane_ok
            and self.tangent_status in ("pass", "trivial-pass")
            and self.sign_pattern_ok
        )


def _contact_data(k: int):
    """Parity-appropriate contact angle, its node index, and the window
    orientation: the sign window sits to the right of the contact angle for
    odd k and to the left for even k."""
    if k % 2 == 1:
        return rational_angle(k - 1, 2 * k - 1), (k - 1) // 2, 1.0
    return rational_angle(k, 2 * k - 1), k // 2, -1.0


def facet_contact_check(k: int, epsilon: float = 1e-3) -> FacetContactReport:
    """Verify how the cosine curve meets the critical facet.

    At the contact angle t0 ((k-1)*pi/(2k-1) for odd k, k*pi/(2k-1) for
    even k): (a) C_k(t0) lies on the facet hyperplane {x_k = 1} exactly;
    (b) the curve tangent at t0, oriented toward the sign window, points
    into the relative interior of the contact polytope spanned by
    C_{k-1} at angle 0 and the nonzero nodes (for k = 2 that polytope is a
    segment, the cone is one-dimensional, and the clause is trivial-pass);
    (c) stepping epsilon toward the window makes every facet function
    positive, stepping away leaves only the contact node's own function
    positive.  Clause (c) needs epsilon below the gap from t0 to the
    nearest other root of any f_j, which shrinks with k (9.3e-4 at k = 30);
    a larger epsilon raises ValueError naming the gap.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0.0 < epsilon < 0.1:
        raise ValueError(f"epsilon must be in (0, 0.1), got {epsilon}")
    t0, j_star, orientation = _contact_data(k)
    gap = min(abs(r.value - t0.value)
              for j in range(k) for r in facet_curve_roots(k, j) if r != t0)
    if epsilon >= gap:
        raise ValueError(
            f"epsilon must be below {gap:.6g}, the gap from the contact angle "
            f"to the nearest other facet-function root at k={k}, got {epsilon}"
        )

    residual = abs(cos_at(2 * k - 1, t0) - 1.0)
    hyperplane_ok = residual < 1e-12

    if k == 2:
        tangent_status, tangent_step = "trivial-pass", None
    else:
        vertex = cosine_curve(k - 1, t0)
        direction = orientation * cosine_curve_deriv(k - 1, t0)
        inside, cert = tangent_cone_interior(vertex, direction,
                                             outer_simplex(k).vertices)
        tangent_status = "pass" if inside else "fail"
        tangent_step = (
            float(cert.objective_value) if cert.status == "optimal" else None
        )

    failures = []
    for side, at, expected_other in (
        ("window", t0.value + orientation * epsilon, 1),
        ("outside", t0.value - orientation * epsilon, -1),
    ):
        for j in range(k):
            expected = 1 if (side == "window" or j == j_star) else expected_other
            got = 1 if facet_curve_poly(k, j, at) > 0.0 else -1
            if got != expected:
                failures.append((side, j, expected, got))

    return FacetContactReport(
        k=k,
        contact_angle=t0,
        hyperplane_residual=residual,
        hyperplane_ok=hyperplane_ok,
        tangent_status=tangent_status,
        tangent_step=tangent_step,
        sign_pattern_ok=not failures,
        sign_failures=tuple(failures),
    )
