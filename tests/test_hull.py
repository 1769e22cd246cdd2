"""Tests for hull membership, probes, tangent cones, and edge certificates.

Oracles: a cross-product point-in-convex-polygon test for planar hulls, a
brute-force step-length scan for the tangent-cone LP, and a directly solved
primal for the exposed-edge LP whose optimum must match the dual-based
implementation by strong duality.
"""

import math

import numpy as np
import pytest

from trigmoment import hull
from trigmoment.angles import (
    cosine_curve,
    cosine_curve_samples,
    symmetric_curve,
    symmetric_curve_samples,
)
from trigmoment.edges import edge_threshold
from trigmoment.hull import (
    DegenerateGeometryError,
    exposed_edge_certificate,
    in_hull,
    interiority_probe,
    tangent_cone_interior,
)
from trigmoment.lp import FEAS_TOL, LinearProgram, LPCertificate, lp_solve


def convex_polygon(n_vertices: int, seed: int) -> np.ndarray:
    """Vertices in convex position: random angles, counterclockwise, on the
    unit circle (a shared radius is what guarantees convex position)."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_vertices))
    return np.column_stack([np.cos(angles), np.sin(angles)])


def point_in_polygon(query, vertices, tol=1e-12) -> bool:
    """Cross-product membership test for a counterclockwise convex polygon."""
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        cross = (b[0] - a[0]) * (query[1] - a[1]) - (b[1] - a[1]) * (query[0] - a[0])
        if cross < -tol * max(1.0, np.abs(vertices).max()):
            return False
    return True


class TestInHull:
    def test_planar_against_polygon_oracle(self):
        vertices = convex_polygon(9, seed=5)
        rng = np.random.default_rng(11)
        queries = rng.uniform(-1.8, 1.8, size=(60, 2))
        for q in queries:
            expected = point_in_polygon(q, vertices)
            # Skip queries too close to the boundary to call either way.
            edge_gap = min(
                abs((b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]))
                for a, b in zip(vertices, np.roll(vertices, -1, axis=0))
            )
            if edge_gap < 1e-6:
                continue
            got = in_hull(q, vertices)
            assert (got.verdict == "member") == expected

    def test_member_witness_reconstructs(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(12, 5))
        w = rng.uniform(0.1, 1.0, 12)
        w /= w.sum()
        query = w @ points
        verdict = in_hull(query, points)
        assert verdict.verdict == "member"
        assert verdict.witness.reconstruction_error(query) < 1e-9
        assert np.all(verdict.witness.weights >= 0.0)
        assert abs(verdict.witness.weights.sum() - 1.0) < 1e-12

    def test_outside_separator_is_valid(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(15, 4))
        query = points.max(axis=0) + 1.0
        verdict = in_hull(query, points)
        assert verdict.verdict == "outside"
        g = verdict.separator
        assert g(query) > 0.0
        assert np.all([g(p) <= 1e-9 for p in points])
        assert verdict.margin > 1e-9

    def test_separators_hold_on_every_hull_point(self):
        rng = np.random.default_rng(1)
        cases = [(rng.normal(size=(n, d)), 3.0 * rng.normal(size=d) + 5.0)
                 for n, d in [(9, 2), (40, 3), (6, 5), (200, 4)]]
        cases.append((cosine_curve_samples(5, np.linspace(0.0, math.pi, 3000)),
                      1.01 * cosine_curve(5, 0.8)))
        for points, query in cases:
            verdict = in_hull(query, points)
            assert verdict.verdict == "outside"
            g = verdict.separator
            assert g(query) > 0.0
            assert np.all(points @ g.coeffs + g.constant <= FEAS_TOL)

    def test_invalid_farkas_separator_raises(self, monkeypatch):
        # A zero combination separates nothing; in_hull must refuse it.
        monkeypatch.setattr(
            hull, "lp_solve", lambda lp: LPCertificate(status="infeasible", dual=np.zeros(3))
        )
        with pytest.raises(RuntimeError):
            in_hull(np.array([5.0, 5.0]), np.eye(2))

    def test_vertex_of_simplex_is_member(self):
        points = np.eye(3)
        verdict = in_hull(np.array([1.0, 0.0, 0.0]), points)
        assert verdict.verdict == "member"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            in_hull(np.zeros(3), np.eye(2))

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(19)
        points = rng.normal(size=(10, 3))
        query = rng.normal(size=3)
        first = in_hull(query, points)
        second = in_hull(query, points)
        assert first.verdict == second.verdict
        if first.verdict == "member":
            assert np.array_equal(first.witness.weights, second.witness.weights)
        else:
            assert np.array_equal(first.separator.coeffs, second.separator.coeffs)


class TestInteriorityProbe:
    SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

    def test_center_is_interior(self):
        verdict = interiority_probe(np.zeros(2), self.SQUARE, delta=1e-3)
        assert verdict.verdict == "interior"

    def test_edge_midpoint_is_boundary(self):
        verdict = interiority_probe(np.array([1.0, 0.0]), self.SQUARE, delta=1e-3)
        assert verdict.verdict == "boundary"

    def test_outside_point_is_outside(self):
        verdict = interiority_probe(np.array([2.0, 0.0]), self.SQUARE, delta=1e-3)
        assert verdict.verdict == "outside"
        assert verdict.separator is not None

    def test_point_within_delta_of_edge_is_boundary(self):
        verdict = interiority_probe(np.array([1.0 - 1e-4, 0.0]), self.SQUARE, delta=1e-3)
        assert verdict.verdict == "boundary"

    def test_flat_point_set_rejected(self):
        segment = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateGeometryError):
            interiority_probe(np.array([0.5, 0.5]), segment, delta=1e-3)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            interiority_probe(np.zeros(2), self.SQUARE, delta=0.0)

    def test_nan_delta_rejected(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            interiority_probe(np.zeros(2), self.SQUARE, delta=float("nan"))


def probe_by_lp(query, points, delta):
    """Reference verdict: one in_hull solve for the query and every probe."""
    if in_hull(query, points).verdict == "outside":
        return "outside"
    for i in range(query.shape[0]):
        for sign in (1.0, -1.0):
            probe = query.copy()
            probe[i] += sign * delta
            if in_hull(probe, points).verdict != "member":
                return "boundary"
    return "interior"


class TestInteriorityProbeAgainstReference:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_verdicts_match_per_probe_solves(self, k, monkeypatch):
        half = 0.5 * edge_threshold(k)
        delta = 1e-5
        calls = []
        counted = hull.in_hull

        def counting_in_hull(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(hull, "in_hull", counting_in_hull)
        expected_verdicts = []
        for theta in (half - 0.15, half - 0.03, half + 0.03, half + 0.15):
            thetas = np.unique(np.concatenate([np.linspace(0.0, math.pi, 1000), [theta]]))
            points = cosine_curve_samples(k, thetas)
            query = cosine_curve(k, theta)
            calls.clear()
            got = interiority_probe(query, points, delta).verdict
            probe_calls = len(calls)
            expected = probe_by_lp(query, points, delta)
            assert got == expected, f"k={k} theta={theta}"
            expected_verdicts.append(expected)
            if expected == "interior":
                # The base basis certifies at least one probe without an LP.
                assert probe_calls < 1 + 2 * k
        assert expected_verdicts == ["boundary", "boundary", "interior", "interior"]


def scan_max_step(vertex, unit, vertices, hi=3.0, steps=3000):
    """Brute-force largest t with vertex + t * unit in the hull."""
    ts = np.linspace(0.0, hi, steps)
    best = 0.0
    for t in ts:
        if in_hull(vertex + t * unit, vertices).verdict == "member":
            best = t
    return best


class TestTangentCone:
    TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_interior_direction_accepted_with_exact_step(self):
        ok, cert = tangent_cone_interior(np.zeros(2), np.array([1.0, 1.0]), self.TRIANGLE)
        assert ok
        # Along (1,1)/sqrt(2) the constraint x + y <= 1 binds at t = sqrt(2)/2.
        assert abs(cert.objective_value - math.sqrt(2.0) / 2.0) < 1e-9

    def test_step_matches_brute_force_scan(self):
        rng = np.random.default_rng(23)
        vertices = convex_polygon(7, seed=31)
        vertex = vertices[2]
        inward = vertices.mean(axis=0) - vertex + rng.normal(scale=0.05, size=2)
        unit = inward / np.linalg.norm(inward)
        ok, cert = tangent_cone_interior(vertex, inward, vertices)
        assert ok
        scanned = scan_max_step(vertex, unit, vertices)
        assert abs(cert.objective_value - scanned) < 2e-3

    def test_edge_direction_rejected(self):
        ok, _ = tangent_cone_interior(np.zeros(2), np.array([1.0, 0.0]), self.TRIANGLE)
        assert not ok

    def test_outward_direction_rejected(self):
        ok, cert = tangent_cone_interior(np.zeros(2), np.array([-1.0, -1.0]), self.TRIANGLE)
        assert not ok
        assert cert.objective_value <= 1e-9

    def test_positive_rescaling_is_invariant(self):
        ok1, cert1 = tangent_cone_interior(np.zeros(2), np.array([1.0, 2.0]), self.TRIANGLE)
        ok2, cert2 = tangent_cone_interior(np.zeros(2), np.array([100.0, 200.0]), self.TRIANGLE)
        assert ok1 and ok2
        assert abs(cert1.objective_value - cert2.objective_value) < 1e-10

    def test_lower_dimensional_facet_rejected(self):
        segment = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateGeometryError):
            tangent_cone_interior(np.zeros(2), np.array([1.0, 1.0]), segment)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            tangent_cone_interior(np.zeros(2), np.zeros(2), self.TRIANGLE)

    def test_vertex_must_belong_to_facet(self):
        with pytest.raises(ValueError):
            tangent_cone_interior(np.array([5.0, 5.0]), np.array([1.0, 1.0]), self.TRIANGLE)


def solve_edge_primal(k, alpha, beta, num_samples):
    """Directly solve the max-min-slack functional search (primal form)."""
    ts = np.linspace(0.0, 2.0 * math.pi, num_samples, endpoint=False)
    radius = 10.0 * (2.0 * math.pi / num_samples)

    def circ(t, x):
        d = np.abs(np.mod(t - x, 2.0 * math.pi))
        return np.minimum(d, 2.0 * math.pi - d)

    kept = ts[(circ(ts, alpha) > radius) & (circ(ts, beta) > radius)]
    P = symmetric_curve_samples(k, kept)
    sa = symmetric_curve(k, alpha)
    sb = symmetric_curve(k, beta)
    m, dim = P.shape
    # Variables: h (dim), h0, s (all free), then nonnegative slacks: one per
    # sample row, and u, w (dim each) for the box h + u = 1, h - w = -1.
    # Rows: h . SM(alpha) = h0, h . SM(beta) = h0, h . P_i - h0 + s + slack_i
    # = 0, then the box rows.
    n_var = dim + 2 + m + 2 * dim
    A = np.zeros((2 + m + 2 * dim, n_var))
    A[0, :dim] = sa
    A[0, dim] = -1.0
    A[1, :dim] = sb
    A[1, dim] = -1.0
    A[2:2 + m, :dim] = P
    A[2:2 + m, dim] = -1.0
    A[2:2 + m, dim + 1] = 1.0
    A[2:2 + m, dim + 2:dim + 2 + m] = np.eye(m)
    A[2 + m:2 + m + dim, :dim] = np.eye(dim)
    A[2 + m:2 + m + dim, dim + 2 + m:dim + 2 + m + dim] = np.eye(dim)
    A[2 + m + dim:, :dim] = np.eye(dim)
    A[2 + m + dim:, dim + 2 + m + dim:] = -np.eye(dim)
    free = np.zeros(n_var, dtype=bool)
    free[:dim + 2] = True
    objective = np.zeros(n_var)
    objective[dim + 1] = 1.0
    lp = LinearProgram(
        objective=objective,
        A=A,
        rhs=np.concatenate([np.zeros(2 + m), np.ones(dim), -np.ones(dim)]),
        free=free,
        maximize=True,
    )
    return lp_solve(lp)


class TestExposedEdgeCertificate:
    def test_dual_margin_matches_directly_solved_primal(self):
        k, alpha, beta = 2, 0.4, 1.9
        primal = solve_edge_primal(k, alpha, beta, 240)
        cert = exposed_edge_certificate(k, alpha, beta, num_samples=240)
        assert primal.status == "optimal"
        assert cert is not None
        assert abs(cert.margin - primal.objective_value) < 1e-7

    def test_certificate_pins_endpoints_and_dominates_samples(self):
        k, alpha, beta = 2, 0.0, 1.5
        num_samples = 700
        cert = exposed_edge_certificate(k, alpha, beta, num_samples=num_samples)
        assert cert is not None
        g = cert.functional
        assert abs(g(symmetric_curve(k, alpha))) < 1e-7
        assert abs(g(symmetric_curve(k, beta))) < 1e-7
        # Strict domination holds outside the endpoint exclusion zones; inside
        # them the functional may rise slightly above zero (it is pinned at the
        # endpoints but not forced tangent there).
        thetas = np.linspace(0.0, 2.0 * math.pi, 4001)
        radius = 10.0 * (2.0 * math.pi / num_samples)

        def circ(t, x):
            d = np.abs(np.mod(t - x, 2.0 * math.pi))
            return np.minimum(d, 2.0 * math.pi - d)

        away = (circ(thetas, alpha) > radius) & (circ(thetas, beta) > radius)
        values = symmetric_curve_samples(k, thetas) @ g.coeffs + g.constant
        assert float(values[away].max()) < 0.0
        assert float(values.max()) < 1e-3

    def test_short_chord_certified_long_chord_refused(self):
        # Edge threshold at k=2 sits at 2*pi/3 ~ 2.094.
        assert exposed_edge_certificate(2, 0.3, 0.3 + 1.9, num_samples=900) is not None
        assert exposed_edge_certificate(2, 0.3, 0.3 + 2.3, num_samples=900) is None

    def test_rotation_invariance_of_the_verdict(self):
        for shift in (0.0, 1.0, 2.5, 4.0):
            assert (
                exposed_edge_certificate(2, shift, shift + 1.8, num_samples=600)
                is not None
            )
            assert (
                exposed_edge_certificate(2, shift, shift + 2.4, num_samples=600)
                is None
            )

    def test_symmetric_in_endpoint_order(self):
        c1 = exposed_edge_certificate(2, 0.2, 1.7, num_samples=400)
        c2 = exposed_edge_certificate(2, 1.7, 0.2, num_samples=400)
        assert c1 is not None and c2 is not None
        assert abs(c1.margin - c2.margin) < 1e-9

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError):
            exposed_edge_certificate(2, 1.0, 1.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            exposed_edge_certificate(2, 0.0, 1.0, num_samples=50)
