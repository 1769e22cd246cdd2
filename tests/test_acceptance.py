"""Acceptance battery: every headline guarantee at its stated tolerance.

Each test here pins one end-to-end property of the package — exact identity
residuals, the facet vanishing pattern, root sets, the origin witness, the
facet-contact pipeline, threshold recovery, the edge dichotomy, and
spectrahedron/LP consistency — at the tolerance the package promises, over
the full advertised parameter ranges.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from trigmoment.angles import (
    cosine_curve_deriv,
    symmetric_curve,
    symmetric_curve_samples,
)
from trigmoment.edges import edge_threshold, edge_verdict, estimate_threshold, \
    facet_contact_check
from trigmoment.facets import (
    all_trig_identity_residuals,
    bisect_roots,
    facet_curve_poly_grid,
    facet_curve_roots,
    facet_functional,
    origin_witness,
    verify_facet_description,
)
from trigmoment.hull import in_hull
from trigmoment.toeplitz import min_eigenvalue, toeplitz_membership


def test_identity_residuals_all_indices_k2_to_50_within_5_seconds():
    started = time.perf_counter()
    worst = 0.0
    for k in range(2, 51):
        residuals = all_trig_identity_residuals(k)
        assert residuals, f"k={k} produced no identity instances"
        worst = max(worst, max(res for _, _, res in residuals))
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 5.0


def test_facet_vanishing_pattern_k2_to_20():
    for k in range(2, 21):
        report = verify_facet_description(k, tol=1e-10)
        assert report.passed, f"k={k}: vanishing pattern violated"
        assert report.max_offdiagonal < 1e-10
        assert report.min_diagonal > 1e-10


def test_root_sets_k2_to_20_count_bisection_and_simplicity():
    for k in range(2, 21):
        for j in range(k):
            exact = facet_curve_roots(k, j)
            assert len(exact) == 2 * k - 3, f"k={k} j={j}"

            found = bisect_roots(
                lambda t, j=j, k=k: facet_curve_poly_grid(k, j, t),
                0.0, math.pi,
            )
            assert len(found) == len(exact), f"k={k} j={j}: bisection count"
            ordered = sorted(exact, key=lambda a: a.value)
            deviation = max(
                abs(a.value - b) for a, b in zip(ordered, sorted(found))
            )
            assert deviation <= 1e-10, f"k={k} j={j}: deviation {deviation:.3e}"

            functional = facet_functional(k, j)
            for root in exact:
                slope = abs(functional.coeffs @ cosine_curve_deriv(k - 1, root))
                assert slope > 1e-8, f"k={k} j={j}: near-multiple root"


def test_origin_witness_reconstructs_and_is_lp_member_k2_to_20():
    for k in range(2, 21):
        witness = origin_witness(k)
        n = 2 * k - 1
        assert abs(witness.weights[0] - 1.0 / n) < 1e-15
        assert np.max(np.abs(witness.weights[1:] - 2.0 / n)) < 1e-15
        assert witness.reconstruction_error(np.zeros(k - 1)) < 1e-12
        verdict = in_hull(np.zeros(k - 1), witness.points)
        assert verdict.verdict == "member", f"k={k}: LP refused the origin"


def test_facet_contact_pipeline_k3_to_10():
    for k in range(3, 11):
        report = facet_contact_check(k)
        assert report.passed, f"k={k}: facet contact check failed"
        assert report.hyperplane_residual < 1e-12
        assert report.tangent_status == "pass"
        assert report.tangent_step > 1e-6
        assert report.sign_pattern_ok


@pytest.mark.parametrize(
    "k,samples,approx",
    [(2, 4000, 2.09440), (3, 4000, 2.51327), (4, 5000, 2.69279),
     (5, 6000, 2.79253)],
)
def test_threshold_recovery_within_5e3(k, samples, approx):
    started = time.perf_counter()
    estimate = estimate_threshold(k, num_samples=samples, resolution=1e-3)
    elapsed = time.perf_counter() - started
    closed = edge_threshold(k)
    assert abs(estimate.psi_hat - closed) < 5e-3
    assert abs(estimate.psi_hat - approx) < 5e-3
    lo, hi = estimate.bracket
    assert lo < estimate.psi_hat < hi
    assert elapsed < 60.0


def test_edge_dichotomy_20_random_rotations_k2_to_4():
    rng = np.random.default_rng(20260814)
    rotations = rng.uniform(0.0, 2.0 * math.pi, 20)
    for k in (2, 3, 4):
        threshold = edge_threshold(k)
        for tau in rotations:
            below = edge_verdict(k, tau, tau + threshold - 0.1, 1500)
            assert below.verdict == "edge", f"k={k} tau={tau:.4f}"
            assert below.certificate.margin > 1e-7

            above = edge_verdict(k, tau, tau + threshold + 0.1, 1500)
            assert above.verdict == "not_edge", f"k={k} tau={tau:.4f}"
            assert above.midpoint_witness.verdict == "interior"


def test_spectrahedron_membership_consistent_with_lp_hull():
    for k in (2, 3):
        test_angles = [0.9, 2.0, 4.5]
        thetas = np.concatenate(
            [np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False), test_angles]
        )
        hull_samples = symmetric_curve_samples(k, thetas)

        for theta in test_angles:
            base = symmetric_curve(k, theta)

            # Curve points: members with a rank-one certificate.
            on_curve = toeplitz_membership(k, base)
            assert on_curve.status == "member"
            assert abs(on_curve.smallest_eigenvalue) < 1e-8
            spectrum = np.linalg.eigvalsh(on_curve.matrix)
            assert abs(spectrum[-1] - 2 * k) < 1e-6
            assert abs(spectrum[-2]) < 1e-6
            assert in_hull(base, hull_samples).verdict == "member"

            # Radially inside / outside, at distance >> 1e-3 from the
            # boundary, both oracles must agree.
            inside = 0.95 * base
            assert toeplitz_membership(k, inside).status == "member"
            assert in_hull(inside, hull_samples).verdict == "member"

            outside = 1.01 * base
            assert toeplitz_membership(k, outside).status == "not_member_likely"
            assert in_hull(outside, hull_samples).verdict == "outside"

        origin = np.zeros(2 * k)
        at_origin = toeplitz_membership(k, origin)
        assert at_origin.status == "member"
        assert at_origin.smallest_eigenvalue == 1.0
        assert min_eigenvalue(at_origin.matrix) == 1.0
        assert in_hull(origin, hull_samples).verdict == "member"

        # A chord-interior combination (arc above the edge threshold).
        mixed = 0.6 * symmetric_curve(k, 0.9) \
            + 0.4 * symmetric_curve(k, 4.5)
        assert toeplitz_membership(k, mixed, tol=1e-7).status == "member"
        assert in_hull(mixed, hull_samples).verdict == "member"


def test_scope_is_fixed_k_verification_not_face_counting():
    # The package verifies fixed-k geometry; asymptotic face-number bounds
    # and face enumeration are documented as out of scope and no API
    # pretends to offer them.
    import trigmoment

    names = " ".join(dir(trigmoment)).lower()
    for banned in ("face_number", "face_count", "neighborl", "asymptotic"):
        assert banned not in names

    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert readme.exists(), "README.md is part of the deliverable"
    text = readme.read_text(encoding="utf-8").lower()
    assert "scope" in text
    assert "face" in text  # the face-counting exclusion is documented
