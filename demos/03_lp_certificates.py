"""LP-backed geometry: every verdict ships with a checkable certificate.

Membership comes with convex weights, exclusion with a separating
functional, interiority with probe displacements, tangent-cone membership
with barycentric coordinates and a step length, and exposed edges with a
supporting functional whose domination margin is recomputed outside the
solver.
"""

import math

import numpy as np

from trigmoment.angles import cosine_curve_deriv, cosine_curve_samples
from trigmoment.facets import outer_simplex
from trigmoment.hull import (
    exposed_edge_certificate,
    in_hull,
    interiority_probe,
    tangent_cone_interior,
)


def main():
    print("hull membership with certificates (k=2 slice, R^2)")
    print("--------------------------------------------------")
    samples = cosine_curve_samples(2, np.linspace(0.0, math.pi, 400))
    inside = np.array([0.2, 0.1])
    outside = np.array([1.2, 0.0])
    member = in_hull(inside, samples)
    refused = in_hull(outside, samples)
    print(f"  {inside}: {member.verdict}, "
          f"weights reconstruct to {np.max(np.abs(member.witness.combine() - inside)):.2e}")
    g = refused.separator
    print(f"  {outside}: {refused.verdict}, separator margin {refused.margin:.4f}")
    print(f"    g(outside) = {g(outside):+.4f} > "
          f"max over samples = {np.max(samples @ g.coeffs + g.constant):+.4f}")
    print()

    print("interiority probing")
    print("-------------------")
    for point in (np.array([0.2, 0.1]), cosine_curve_samples(2, [1.0])[0]):
        verdict = interiority_probe(point, samples, delta=1e-5)
        print(f"  {np.round(point, 4)}: {verdict.verdict}")
    print()

    print("tangent-cone interiority from barycentric coordinates")
    print("-----------------------------------------------------")
    # At the k=4 contact vertex (angle 4*pi/7) the curve leaves along -C',
    # strictly inside the tangent cone; at the neighboring vertex the same
    # recipe points outward, a barycentric coordinate is negative, and the
    # test refuses it.
    k = 4
    simplex = outer_simplex(k)
    for idx in (2, 1):
        angle = simplex.vertex_angles[idx]
        direction = -cosine_curve_deriv(k - 1, angle)
        ok, step = tangent_cone_interior(simplex.vertices, idx, direction)
        print(f"  vertex at {angle!r}, direction -C'(t): interior={ok}, "
              f"max step eps*={step:.4f}")
    print()

    print("an exposed-edge certificate for a short chord (k=2)")
    print("---------------------------------------------------")
    cert = exposed_edge_certificate(2, 0.0, 1.9, num_samples=1200)
    h, h0 = cert.functional.coeffs, -cert.functional.constant
    print(f"  functional coefficients: {np.round(h, 6)}")
    print(f"  domination margin over the rest of the curve: {cert.margin:.3e}")
    print("  (the same construction refuses a chord of arc 2.3:",
          f"{exposed_edge_certificate(2, 0.0, 2.3, num_samples=1200)})")


if __name__ == "__main__":
    main()
