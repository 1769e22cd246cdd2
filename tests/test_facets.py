"""Tests for the facet geometry: nodes, functionals, roots, identities.

Oracles used here and fixed in advance:
* golden-ratio closed forms for pentagon/heptagon cosines,
* an independent bisection root finder over a dense grid,
* central finite differences for derivative nonvanishing.
"""

import math

import numpy as np
import pytest

from trigmoment.angles import cos_at, rational_angle
from trigmoment.facets import (
    DERIV_TOL,
    RECON_TOL,
    ZERO_TOL,
    all_trig_identity_residuals,
    bisect_roots,
    facet_curve_poly,
    facet_curve_poly_grid,
    facet_curve_roots,
    facet_curve_sign,
    facet_functional,
    facet_nodes,
    inner_simplex,
    origin_witness,
    outer_simplex,
    trig_identity_residual,
    verify_facet_description,
)

COS_72 = (math.sqrt(5.0) - 1.0) / 4.0   # cos(2*pi/5)
COS_36 = (math.sqrt(5.0) + 1.0) / 4.0   # cos(pi/5)


def reference_identity_residual(which, k, idx):
    """One identity residual summed term by term, a cosine per term: the
    definition the table-based sums must reproduce bit for bit."""
    n = 2 * k - 1
    if which == "node-sum":
        s = sum(cos_at(2 * idx - 1, rational_angle(2 * j, n)) for j in range(1, k))
    elif which == "frequency-sum":
        node = rational_angle(2 * idx, n)
        s = sum(cos_at(2 * l - 1, node) for l in range(1, k))
    else:
        ai, aj = (rational_angle(2 * v, n) for v in idx)
        s = sum(cos_at(2 * l - 1, ai) * cos_at(2 * l - 1, aj) for l in range(1, k))
    return abs(s - (-0.5))


def reference_identity_instances(k):
    """(kind, index) of every identity instance, in report order."""
    return ([("node-sum", l) for l in range(1, k)]
            + [("frequency-sum", j) for j in range(1, 2 * k - 1)]
            + [("product-sum", (i, j)) for i in range(k) for j in range(k) if i != j])


class TestNodes:
    def test_k2(self):
        nodes = facet_nodes(2)
        assert [(a.p, a.q) for a in nodes] == [(1, 2), (2, 3)]

    def test_k3(self):
        nodes = facet_nodes(3)
        assert [(a.p, a.q) for a in nodes] == [(1, 2), (2, 5), (4, 5)]

    def test_k4(self):
        nodes = facet_nodes(4)
        assert [(a.p, a.q) for a in nodes] == [(1, 2), (2, 7), (4, 7), (6, 7)]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            facet_nodes(1)


class TestFunctionals:
    def test_j0(self):
        h = facet_functional(3, 0)
        assert h.constant == 0.5
        assert np.array_equal(h.coeffs, [1.0, 1.0])

    def test_j1_closed_form(self):
        h = facet_functional(3, 1)
        assert h.constant == 0.0
        assert abs(h.coeffs[0] - (COS_72 - 1.0)) < 1e-15
        assert abs(h.coeffs[1] - (-COS_36 - 1.0)) < 1e-15

    def test_zero_at_origin(self):
        for k in (2, 3, 5, 8):
            for j in range(1, k):
                assert facet_functional(k, j)(np.zeros(k - 1)) == 0.0

    def test_j_range_checked(self):
        with pytest.raises(ValueError):
            facet_functional(3, 3)
        with pytest.raises(ValueError):
            facet_functional(3, -1)


class TestCurvePoly:
    def test_vanishes_at_other_nodes(self):
        assert abs(facet_curve_poly(3, 0, rational_angle(2, 5))) < 1e-15
        assert abs(facet_curve_poly(3, 1, rational_angle(4, 5))) < 1e-15

    def test_half_at_distinguished_node(self):
        assert abs(facet_curve_poly(3, 0, rational_angle(1, 2)) - 0.5) < 1e-15

    def test_positive_diagonal_value_k2(self):
        # f_1(theta_1) = cos(2*pi/3)^2 + 1/2 = 0.75
        v = facet_curve_poly(2, 1, rational_angle(2, 3))
        assert abs(v - 0.75) < 1e-15

    def test_diagonal_closed_form(self):
        # f_j(theta_j) = sum_l cos((2l-1) theta_j)^2 + 1/2
        for k in (3, 4, 6):
            nodes = facet_nodes(k)
            for j in range(1, k):
                expect = 0.5 + sum(
                    math.cos((2 * l - 1) * nodes[j].value) ** 2 for l in range(1, k)
                )
                assert abs(facet_curve_poly(k, j, nodes[j]) - expect) < 1e-12

    def test_grid_matches_scalar(self):
        thetas = np.linspace(0.0, math.pi, 17)
        for j in range(3):
            grid = facet_curve_poly_grid(3, j, thetas)
            for i, t in enumerate(thetas):
                assert abs(grid[i] - facet_curve_poly(3, j, float(t))) < 1e-12


class TestRootSets:
    def test_k3_closed_forms(self):
        r0 = facet_curve_roots(3, 0)
        assert [(a.p, a.q) for a in r0] == [(1, 3), (2, 5), (4, 5)]
        r1 = facet_curve_roots(3, 1)
        assert [(a.p, a.q) for a in r1] == [(1, 5), (1, 2), (4, 5)]
        r2 = facet_curve_roots(3, 2)
        assert [(a.p, a.q) for a in r2] == [(2, 5), (1, 2), (3, 5)]

    def test_k2_single_roots(self):
        assert [(a.p, a.q) for a in facet_curve_roots(2, 0)] == [(2, 3)]
        assert [(a.p, a.q) for a in facet_curve_roots(2, 1)] == [(1, 2)]

    def test_count_and_residual(self):
        for k in range(2, 13):
            for j in range(k):
                roots = facet_curve_roots(k, j)
                assert len(roots) == 2 * k - 3
                for r in roots:
                    assert abs(facet_curve_poly(k, j, r)) < 1e-13

    def test_sorted_in_0_pi(self):
        for k in (2, 5, 9):
            for j in range(k):
                vals = [r.value for r in facet_curve_roots(k, j)]
                assert vals == sorted(vals)
                assert 0.0 < vals[0] and vals[-1] < math.pi + 1e-15

    def test_multiplicity_one_by_sign_change_and_derivative(self):
        h = 1e-4
        for k in range(2, 9):
            for j in range(k):
                for r in facet_curve_roots(k, j):
                    t = r.value
                    left = facet_curve_poly(k, j, t - 1e-5)
                    right = facet_curve_poly(k, j, t + 1e-5)
                    assert left * right < 0.0
                    fd = (
                        facet_curve_poly(k, j, t + h) - facet_curve_poly(k, j, t - h)
                    ) / (2.0 * h)
                    assert abs(fd) > DERIV_TOL

    def test_matches_bisection_oracle(self):
        for k in range(2, 9):
            for j in range(k):
                closed = np.array([r.value for r in facet_curve_roots(k, j)])
                found = np.array(
                    bisect_roots(lambda ts: facet_curve_poly_grid(k, j, ts), 0.0, math.pi)
                )
                assert len(found) == len(closed)
                assert np.max(np.abs(found - closed)) < 1e-10

    def test_antisymmetry_for_positive_j(self):
        thetas = np.linspace(0.05, math.pi - 0.05, 40)
        for k in (2, 3, 5):
            for j in range(1, k):
                f = facet_curve_poly_grid(k, j, thetas)
                g = facet_curve_poly_grid(k, j, math.pi - thetas)
                assert np.max(np.abs(f + g)) < 1e-12

    def test_no_root_in_contact_window(self):
        # f_0 keeps one sign strictly between the two contact angles.
        for k in range(2, 11):
            lo = (k - 1) * math.pi / (2 * k - 1)
            hi = k * math.pi / (2 * k - 1)
            ts = np.linspace(lo + 1e-9, hi - 1e-9, 2000)
            vals = facet_curve_poly_grid(k, 0, ts)
            assert np.all(vals > 0.0)


class TestSignProfile:
    def test_window_sign_k3(self):
        assert facet_curve_sign(3, 1, 2 * math.pi / 5 + 0.01) == 1

    def test_zero_at_half_pi(self):
        assert facet_curve_sign(3, 1, rational_angle(1, 2)) == 0

    def test_window_sign_k4(self):
        assert facet_curve_sign(4, 2, 3 * math.pi / 7 + 0.01) == -1


class TestVanishingPattern:
    def test_k3_all_pairs(self):
        report = verify_facet_description(3, 1e-10)
        assert report.passed
        assert len(report.entries) == 9

    def test_k2(self):
        report = verify_facet_description(2, 1e-10)
        assert report.passed
        diag = [e for e in report.entries if e[0] == e[1] == 1]
        assert abs(diag[0][2] - 0.75) < 1e-14

    def test_k20(self):
        report = verify_facet_description(20, 1e-9)
        assert report.passed
        assert len(report.entries) == 400
        assert report.max_offdiagonal < 1e-12
        # The j=0 diagonal entry is exactly 1/2 + sum of cos((2l-1)pi/2)^2 = 1/2.
        assert report.min_diagonal >= 0.5


class TestOriginWitness:
    def test_k2(self):
        w = origin_witness(2)
        assert np.allclose(w.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
        assert abs(w.combine()[0]) < 1e-15

    def test_k3(self):
        w = origin_witness(3)
        assert np.allclose(w.weights, [0.2, 0.4, 0.4], atol=1e-15)
        assert w.reconstruction_error(np.zeros(2)) < RECON_TOL

    def test_reconstruction_all_k(self):
        for k in range(2, 21):
            w = origin_witness(k)
            assert abs(w.weights.sum() - 1.0) < 1e-14
            assert np.all(w.weights > 0.0)
            assert w.reconstruction_error(np.zeros(k - 1)) < RECON_TOL


class TestSimplices:
    def test_outer_k3_vertices(self):
        s = outer_simplex(3)
        expect = np.array([[1.0, 1.0], [COS_72, -COS_36], [-COS_36, COS_72]])
        assert np.max(np.abs(s.vertices - expect)) < 1e-15
        assert s.which == "outer"

    def test_inner_vertex_facet_incidence(self):
        # Every inner vertex satisfies all functionals >= -1e-10 with
        # equality on exactly k-1 of the k of them.
        for k in (2, 3, 4, 6):
            s = inner_simplex(k)
            for v in s.vertices:
                vals = np.array([h(v) for h in s.facets])
                assert np.all(vals >= -ZERO_TOL)
                assert np.sum(np.abs(vals) < ZERO_TOL) == k - 1

    def test_vertex_count_and_dim(self):
        for k in (2, 5):
            assert outer_simplex(k).vertices.shape == (k, k - 1)
            assert inner_simplex(k).vertices.shape == (k, k - 1)


class TestTrigIdentities:
    def test_node_sum_k3(self):
        assert trig_identity_residual("node-sum", 3, 1) < 1e-15
        assert trig_identity_residual("node-sum", 3, 2) < 1e-15

    def test_frequency_sum_single_term(self):
        # k=2, j=1: the sum is the single term cos(2*pi/3); folding reduces it
        # to -cos(pi/3), exact up to one rounding of cos(pi/3) itself.
        assert trig_identity_residual("frequency-sum", 2, 1) < 1e-15

    def test_product_sum_with_zero_index(self):
        # i=0 contributes cos(0)=1 factors
        assert trig_identity_residual("product-sum", 3, (0, 1)) < 1e-15

    def test_instance_counts_k3(self):
        rows = all_trig_identity_residuals(3)
        kinds = [r[0] for r in rows]
        assert kinds.count("node-sum") == 2
        assert kinds.count("frequency-sum") == 4
        assert kinds.count("product-sum") == 6

    def test_all_small_through_k12(self):
        for k in range(2, 13):
            for _, _, res in all_trig_identity_residuals(k):
                assert res < 1e-13

    def test_all_residuals_reject_small_k(self):
        for k in (1, 0):
            with pytest.raises(ValueError, match=f"k must be >= 2, got {k}"):
                all_trig_identity_residuals(k)

    def test_all_residuals_bit_identical_to_per_term_sums_k2_to_50(self):
        for k in range(2, 51):
            got = [(w, idx, r.hex()) for w, idx, r in all_trig_identity_residuals(k)]
            want = [(w, idx, reference_identity_residual(w, k, idx).hex())
                    for w, idx in reference_identity_instances(k)]
            assert got == want, f"k={k}"

    def test_single_residual_bit_identical_to_per_term_sum_k2_to_8(self):
        for k in range(2, 9):
            for which, idx in reference_identity_instances(k):
                got = trig_identity_residual(which, k, idx)
                want = reference_identity_residual(which, k, idx)
                assert got.hex() == want.hex(), (which, k, idx)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            trig_identity_residual("node-sum", 3, 3)
        with pytest.raises(ValueError):
            trig_identity_residual("frequency-sum", 3, 5)
        with pytest.raises(ValueError):
            trig_identity_residual("product-sum", 3, (1, 1))
        with pytest.raises(ValueError):
            trig_identity_residual("mystery", 3, 1)
        # Malformed indices name the expected form instead of failing inside
        # the sum (TypeError) or being accepted (a float or bool index).
        for which, idx, form in [
            ("product-sum", 1, "pair"),
            ("product-sum", (0, 1, 2), "pair"),
            ("product-sum", (0.0, 1), "pair"),
            ("node-sum", (0, 1), "integer l"),
            ("node-sum", 1.0, "integer l"),
            ("node-sum", None, "integer l"),
            ("frequency-sum", True, "integer j"),
            ("frequency-sum", 2.0, "integer j"),
        ]:
            with pytest.raises(ValueError, match=f"{which} index must be .*{form}"):
                trig_identity_residual(which, 3, idx)


class TestBisectRoots:
    def test_simple_cosine(self):
        roots = bisect_roots(np.cos, 0.0, math.pi)
        assert len(roots) == 1
        assert abs(roots[0] - math.pi / 2) < 1e-11

    def test_no_roots(self):
        assert bisect_roots(lambda t: np.cos(t) + 2.0, 0.0, math.pi) == []

    def test_many_roots(self):
        roots = bisect_roots(lambda t: np.sin(5.0 * t), 0.1, math.pi - 0.01)
        expect = [i * math.pi / 5.0 for i in range(1, 5)]
        assert len(roots) == 4
        assert np.max(np.abs(np.array(roots) - expect)) < 1e-10
