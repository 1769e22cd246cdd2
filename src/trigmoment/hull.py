"""Convex-hull membership, interiority probes, tangent cones, and exposed-edge
certificates.

Membership of a query point in the hull of finitely many points is a
feasibility LP over barycentric weights; its Farkas certificate on failure is
a separating affine functional.  Interiority is decided by probing the 2n
axis directions around a member.  The tangent-cone test needs no LP: in a
simplex, a direction's barycentric coordinates decide whether it points into
the interior at a vertex, and give the largest step that stays inside.  The
exposed-edge certificate searches for a supporting functional pinned to two
curve points and maximizing the worst slack over curve samples; the search
LP is solved through its explicit dual, whose row multipliers are the
functional itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trigmoment.angles import arc_distance, as_angle, symmetric_curve, symmetric_curve_samples
from trigmoment.facets import AffineFunctional, ConvexCombination
from trigmoment.lp import FEAS_TOL, LinearProgram, lp_solve

MARGIN_TOL = 1e-7  # minimum slack for an edge certificate to count

__all__ = [
    "MARGIN_TOL",
    "DegenerateGeometryError",
    "HullVerdict",
    "EdgeCertificate",
    "in_hull",
    "interiority_probe",
    "tangent_cone_interior",
    "exposed_edge_certificate",
]


class DegenerateGeometryError(ValueError):
    """Point set does not span the ambient space, or is not the simplex a
    computation requires."""


@dataclass(frozen=True, eq=False)
class HullVerdict:
    """Outcome of a hull query.

    ``verdict`` is "member" (membership-only queries merge interior and
    boundary), or "interior" / "boundary" / "outside" from probing.  Members
    carry a reconstructing ConvexCombination; outside verdicts carry a
    separating functional that is strictly positive at the query and
    nonpositive on every hull point, with the separation ``margin``.
    """

    verdict: str
    witness: ConvexCombination | None = None
    separator: AffineFunctional | None = None
    margin: float | None = None


@dataclass(frozen=True, eq=False)
class EdgeCertificate:
    """Supporting functional h . x - h0 vanishing at two curve points and
    at most -margin on all sampled curve points away from them."""

    functional: AffineFunctional
    margin: float


def in_hull(query, points) -> HullVerdict:
    """Is ``query`` a convex combination of the rows of ``points``?

    Returns verdict "member" with the weights, or "outside" with a
    separating functional extracted from the Farkas dual of the
    infeasible weight system.
    """
    query = np.asarray(query, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty 2-d array")
    n, d = points.shape
    if query.shape != (d,):
        raise ValueError(f"query dimension {query.shape} does not match points ({d},)")

    lp = LinearProgram(
        objective=np.zeros(n),
        A=np.vstack([points.T, np.ones((1, n))]),
        rhs=np.concatenate([query, [1.0]]),
    )
    cert = lp_solve(lp)
    if cert.status == "optimal":
        weights = np.clip(cert.primal, 0.0, None)
        weights = weights / weights.sum()
        return HullVerdict(verdict="member", witness=ConvexCombination(weights, points))

    # Farkas: y @ (p_i, 1) <= 0 for all i while y @ (query, 1) > 0.
    y = cert.dual
    norm = float(np.linalg.norm(y[:d]))
    if norm > 0.0:
        y = y / norm
    g = AffineFunctional(y[:d], float(y[d]))
    worst = float(np.max(points @ y[:d] + y[d]))
    margin = g(query) - worst
    if not (worst <= FEAS_TOL and margin > 0.0):
        raise RuntimeError(f"Farkas separator fails: max on hull {worst:.3e}, margin {margin:.3e}")
    return HullVerdict(verdict="outside", separator=g, margin=margin)


def interiority_probe(query, points, delta: float) -> HullVerdict:
    """Interior / boundary / outside by probing 2n axis displacements.

    The query is interior when every probe query +- delta * e_i is still a
    hull member; a member with a failing probe is boundary.  Point sets that
    do not span the full ambient space are rejected.

    The base solve's optimal basis is a simplex of d + 1 sample points that
    contains the query (its largest witness weights; zero-weight points pad
    a degenerate basis).  A probe whose barycentric coordinates in that
    simplex are all nonnegative, with residual at most FEAS_TOL, is a convex
    combination of sample points and needs no LP; only the other probes
    (all of them if the simplex is singular) get a full ``in_hull`` solve.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    query = np.asarray(query, dtype=float)
    points = np.asarray(points, dtype=float)
    require_spanning(points, query.shape[0])
    return probe_spanning(query, points, delta)


def require_spanning(points: np.ndarray, d: int) -> None:
    """Raise DegenerateGeometryError unless ``points`` affinely span R^d."""
    centered = points - points.mean(axis=0)
    if np.linalg.matrix_rank(centered) < d:
        raise DegenerateGeometryError(
            f"points span less than the ambient dimension {d}"
        )


def probe_spanning(query: np.ndarray, points: np.ndarray, delta: float) -> HullVerdict:
    """``interiority_probe`` for float arrays whose caller has already
    checked that ``points`` span R^d and that ``delta`` is positive."""
    d = query.shape[0]
    base = in_hull(query, points)
    if base.verdict == "outside":
        return base
    steps = delta * np.repeat(np.eye(d), 2, axis=0)
    steps[1::2] *= -1.0
    probes = query + steps  # rows query + delta e_0, query - delta e_0, ...
    support = np.argsort(base.witness.weights)[-(d + 1):]
    simplex = np.vstack([points[support].T, np.ones(d + 1)])
    targets = np.vstack([probes.T, np.ones(2 * d)])
    try:
        bary = np.linalg.solve(simplex, targets)
        resid = np.max(np.abs(simplex @ bary - targets), axis=0)
        certified = np.all(bary >= 0.0, axis=0) & (resid <= FEAS_TOL)
    except np.linalg.LinAlgError:
        certified = np.zeros(2 * d, dtype=bool)
    for probe in probes[~certified]:
        if in_hull(probe, points).verdict != "member":
            return HullVerdict(verdict="boundary", witness=base.witness)
    return HullVerdict(verdict="interior", witness=base.witness)


def tangent_cone_interior(vertices, index: int, direction):
    """Does ``direction`` point into the interior of a simplex at one vertex?

    ``vertices`` are the d + 1 vertices of a full-dimensional simplex in R^d
    and ``index`` picks the vertex.  With M = [vertices.T; 1 ... 1] and u the
    normalized direction, M c = (u, 0) gives u's barycentric coordinates c:
    vertex + t * u has weights e_index + t * c.  So u points into the
    interior exactly when every c_i with i != index is positive.  Returns
    (inside, step): step = 1 / sum_{i != index} c_i, the largest t keeping
    vertex + t * u in the simplex, when no such c_i is negative, else 0.0.
    Any other vertex count, or a condition number of M above 1 / FEAS_TOL,
    raises DegenerateGeometryError, and so does a residual of the solve
    above FEAS_TOL, which is re-verified before the verdict leaves.
    """
    vertices = np.asarray(vertices, dtype=float)
    count, d = vertices.shape
    if count != d + 1:
        raise DegenerateGeometryError(f"a simplex in R^{d} has {d + 1} vertices, got {count}")
    norm = float(np.linalg.norm(direction))
    if norm <= 1e-12:
        raise ValueError("direction is numerically zero")
    M = np.vstack([vertices.T, np.ones(count)])
    condition = float(np.linalg.cond(M))
    if not condition * FEAS_TOL <= 1.0:
        raise DegenerateGeometryError(f"the simplex is ill-conditioned: cond {condition:.3e}")
    rhs = np.append(np.asarray(direction, dtype=float) / norm, 0.0)
    coords = np.linalg.solve(M, rhs)
    residual = float(np.max(np.abs(M @ coords - rhs)))
    if not residual <= FEAS_TOL:
        raise DegenerateGeometryError(f"barycentric residual {residual:.3e} exceeds FEAS_TOL")
    others = np.delete(coords, index)
    inside = bool(np.all(others > 0.0))
    step = 1.0 / float(others.sum()) if np.all(others >= 0.0) else 0.0
    return inside, step


def exposed_edge_certificate(k: int, alpha, beta, num_samples: int = 2000):
    """Search for a functional exposing the chord between two curve points.

    Solves (through its dual) the LP that maximizes the minimum slack s of
    h . SM(t_i) <= h0 - s over curve samples t_i, subject to
    h . SM(alpha) = h . SM(beta) = h0 and the box |h_j| <= 1; samples within
    ten grid spacings of either endpoint are excluded so near-tangent
    samples cannot poison the margin.  Returns an EdgeCertificate when the
    recomputed margin of the recovered functional exceeds MARGIN_TOL, else None.
    """
    if num_samples < 100:
        raise ValueError(f"num_samples must be >= 100, got {num_samples}")
    a = as_angle(alpha)
    b = as_angle(beta)
    if arc_distance(a.value, b.value) < 1e-12:
        raise ValueError("alpha and beta must differ")

    ts = np.linspace(0.0, 2.0 * math.pi, num_samples, endpoint=False)
    radius = 10.0 * (2.0 * math.pi / num_samples)
    kept = ts[
        (arc_distance(ts, a.value) > radius)
        & (arc_distance(ts, b.value) > radius)
    ]
    P = symmetric_curve_samples(k, kept)  # (M, 2k)
    sa = symmetric_curve(k, a)
    sb = symmetric_curve(k, b)
    M = P.shape[0]
    dim = 2 * k

    # Dual of the max-min-slack LP.  Variables: mu1, mu2 (free), y (M, >= 0),
    # u, w (dim each, >= 0).  Rows: one per coordinate of h, then the
    # normalization row sum(y) = 1, then mu1 + mu2 = -1.  The row multipliers
    # of this problem are exactly (h, s-offset, -h0).
    n_var = 2 + M + 2 * dim
    A = np.zeros((dim + 2, n_var))
    A[:dim, 0] = sa
    A[:dim, 1] = sb
    A[:dim, 2:2 + M] = P.T
    A[:dim, 2 + M:2 + M + dim] = np.eye(dim)
    A[:dim, 2 + M + dim:] = -np.eye(dim)
    A[dim, 2:2 + M] = 1.0
    A[dim + 1, 0] = 1.0
    A[dim + 1, 1] = 1.0
    objective = np.zeros(n_var)
    objective[2 + M:] = 1.0
    rhs = np.concatenate([np.zeros(dim), [1.0], [-1.0]])
    free = np.zeros(n_var, dtype=bool)
    free[:2] = True
    cert = lp_solve(LinearProgram(objective=objective, A=A, rhs=rhs, free=free))
    if cert.status != "optimal":
        raise RuntimeError(f"edge-certificate LP ended {cert.status}")

    h = cert.dual[:dim]
    h0 = -float(cert.dual[dim + 1])
    pin_residual = max(abs(float(h @ sa) - h0), abs(float(h @ sb) - h0))
    if pin_residual > 1e-6:
        raise RuntimeError(
            f"recovered functional misses the endpoints by {pin_residual:.3e}"
        )
    margin = float(np.min(h0 - P @ h))
    if margin <= MARGIN_TOL:
        return None
    return EdgeCertificate(AffineFunctional(h, -h0), margin)
