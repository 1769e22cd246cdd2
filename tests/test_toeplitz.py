"""Tests for the Hermitian Toeplitz completion membership test.

Oracles: the exact rank-one completion at curve points (an outer product
with known eigenvalues), a Cholesky-bisection computation of the smallest
eigenvalue that avoids the eigensolver used by the implementation, and the
LP hull-membership test on sampled hulls for cross-method agreement.
"""

import math

import numpy as np
import pytest

from trigmoment.angles import symmetric_curve, symmetric_curve_samples
from trigmoment.hull import in_hull
from trigmoment.toeplitz import (
    _affine_project,
    min_eigenvalue,
    toeplitz_assemble,
    toeplitz_membership,
)


def curve_completion(k: int, theta: float):
    """The exact PSD completion at a curve point: even entries e^{2il*theta}."""
    point = symmetric_curve(k, theta).coords
    even = np.exp(1j * 2.0 * theta * np.arange(1, k))
    return point, even


def smallest_eig_by_cholesky_bisection(A: np.ndarray, iters: int = 200) -> float:
    """Bisection on lambda: A - lambda*I is positive definite iff lambda < min eig."""
    n = A.shape[0]
    bound = float(np.abs(A).sum()) + 1.0
    lo, hi = -bound, bound

    def is_pd(lam: float) -> bool:
        try:
            np.linalg.cholesky(A - lam * np.eye(n))
            return True
        except np.linalg.LinAlgError:
            return False

    assert is_pd(lo) and not is_pd(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if is_pd(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def affine_project_by_diagonals(S: np.ndarray, fixed_row: np.ndarray) -> np.ndarray:
    """Reference projection, one diagonal at a time: fixed diagonals (distance
    0 and the odd distances) are reset, each free diagonal pair is averaged."""
    n = S.shape[0]
    row = np.empty(n, dtype=complex)
    for d in range(n):
        if d == 0 or d % 2 == 1:
            row[d] = fixed_row[d]
        else:
            upper = np.mean(np.diagonal(S, offset=d))
            lower = np.mean(np.diagonal(S, offset=-d))
            row[d] = 0.5 * (upper + np.conj(lower))
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = row[j - i] if j >= i else np.conj(row[i - j])
    return out


class TestAffineProjection:
    def test_matches_per_diagonal_reference(self):
        rng = np.random.default_rng(5)
        for n in range(2, 13):
            fixed_row = rng.normal(size=n) + 1j * rng.normal(size=n)
            fixed_row[0] = 1.0
            fixed = (np.arange(n) == 0) | (np.arange(n) % 2 == 1)
            for hermitian in (True, False):
                R = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                S = 0.5 * (R + R.conj().T) if hermitian else R
                got = _affine_project(S, fixed_row)
                want = affine_project_by_diagonals(S, fixed_row)
                assert np.max(np.abs(got - want)) <= 1e-12
                # Fixed entries are copied, not recomputed.
                for d in np.flatnonzero(fixed):
                    assert np.all(np.diagonal(got, offset=d) == fixed_row[d])
                    assert np.all(np.diagonal(got, offset=-d) == np.conj(fixed_row[d]))


class TestAssemble:
    def test_structure_k2(self):
        point = np.array([0.3, -0.2, 0.5, 0.1])  # (x1, x2, y1, y2)
        even = np.array([0.4 - 0.6j])
        M = toeplitz_assemble(point, even)
        assert M.shape == (4, 4)
        assert np.allclose(M, M.conj().T)
        assert np.allclose(np.diagonal(M), 1.0)
        z1 = 0.3 + 0.5j   # distance 1: x1 + i y1
        z3 = -0.2 + 0.1j  # distance 3: x2 + i y2
        for i in range(3):
            assert M[i, i + 1] == z1
        assert M[0, 3] == z3
        for i in range(2):
            assert M[i, i + 2] == even[0]
        assert M[1, 0] == np.conj(z1)

    def test_rank_one_completion_is_outer_product(self):
        rng = np.random.default_rng(2)
        for k in (2, 3, 5):
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            point, even = curve_completion(k, theta)
            M = toeplitz_assemble(point, even)
            v = np.exp(-1j * theta * np.arange(2 * k))
            assert np.max(np.abs(M - np.outer(v, v.conj()))) < 1e-12

    def test_rank_one_completion_eigenvalues(self):
        for k in (2, 3, 4):
            point, even = curve_completion(k, 0.8)
            eigs = np.linalg.eigvalsh(toeplitz_assemble(point, even))
            assert abs(eigs[-1] - 2 * k) < 1e-10
            assert np.max(np.abs(eigs[:-1])) < 1e-10

    def test_wrong_free_entry_count_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_assemble(np.zeros(4), np.zeros(2, dtype=complex))

    def test_odd_length_point_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_assemble(np.zeros(5), np.zeros(2, dtype=complex))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(6)) == 1.0

    def test_matches_cholesky_bisection_oracle(self):
        rng = np.random.default_rng(17)
        for n in (4, 6):
            for _ in range(5):
                R = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                A = 0.5 * (R + R.conj().T)
                expected = smallest_eig_by_cholesky_bisection(A)
                assert abs(min_eigenvalue(A) - expected) < 1e-8

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.zeros((2, 3)))


class TestMembership:
    def test_curve_points_are_members_with_tiny_eigenvalue(self):
        for k in (2, 3, 4):
            for theta in (0.0, 0.7, 2.5, 4.8):
                verdict = toeplitz_membership(k, symmetric_curve(k, theta).coords)
                assert verdict.status == "member"
                assert (verdict.stop, verdict.iterations) == ("psd", 0)
                assert abs(verdict.smallest_eigenvalue) <= 1e-8
                eigs = np.linalg.eigvalsh(verdict.matrix)
                assert abs(eigs[-1] - 2 * k) < 1e-6  # near rank one
                assert abs(eigs[-2]) < 1e-6

    def test_member_certificate_is_affine_feasible(self):
        k = 3
        point = symmetric_curve(k, 1.3).coords
        verdict = toeplitz_membership(k, point)
        M = verdict.matrix
        assert np.max(np.abs(np.diagonal(M) - 1.0)) < 1e-12
        for l in range(1, k + 1):
            d = 2 * l - 1
            want = point[l - 1] + 1j * point[k + l - 1]
            diag = np.diagonal(M, offset=d)
            assert np.max(np.abs(diag - want)) < 1e-12
        # Toeplitz along the free diagonals as well.
        for d in range(2, 2 * k - 1, 2):
            diag = np.diagonal(M, offset=d)
            assert np.max(np.abs(diag - diag[0])) < 1e-12

    def test_origin_is_member_via_identity_matrix(self):
        for k in (2, 3, 5):
            verdict = toeplitz_membership(k, np.zeros(2 * k))
            assert verdict.status == "member"
            assert verdict.smallest_eigenvalue == 1.0
            assert verdict.iterations == 0

    def test_interior_combination_is_member(self):
        # The first mixture is accepted at a start, the second by iterating.
        for k, scale, weights, iterates in (
            (2, 1.0, (0.25, 0.4, 0.35), False),
            (3, 0.9, (1 / 3, 1 / 3, 1 / 3), True),
        ):
            point = scale * sum(
                w * symmetric_curve(k, t).coords
                for w, t in zip(weights, (0.3, 2.1, 4.4))
            )
            verdict = toeplitz_membership(k, point)
            assert verdict.status == "member"
            assert verdict.stop == "psd"
            assert (verdict.iterations > 0) == iterates

    def test_slow_deep_member_is_inconclusive_not_refused(self):
        # A three-point combination at k=3 admits a strictly positive
        # completion, but the alternating projections approach it too
        # slowly for the default budget.  The honest verdict is
        # "inconclusive": the smallest eigenvalue was still improving.
        k = 3
        point = sum(
            symmetric_curve(k, t).coords for t in (0.5, 2.5, 4.5)
        ) / 3.0
        verdict = toeplitz_membership(k, point)
        assert verdict.status == "inconclusive"
        assert (verdict.stop, verdict.iterations) == ("budget", 2000)
        assert -1e-4 < verdict.smallest_eigenvalue < 0.0
        # A tolerance matching the attainable accuracy resolves it.
        relaxed = toeplitz_membership(k, point, tol=1e-5)
        assert relaxed.status == "member"

    def test_scaled_out_curve_point_is_refused(self):
        k = 2
        point = 1.1 * symmetric_curve(k, 0.7).coords
        verdict = toeplitz_membership(k, point)
        assert verdict.status == "not_member_likely"
        assert verdict.stop == "stall_far"

    def test_stall_within_ten_tolerances_is_inconclusive(self):
        # Just outside the curve, the smallest eigenvalue stalls at about
        # -1.33e-5: below -tol, but not below -10*tol.
        point = 1.00001 * symmetric_curve(2, 0.7).coords
        verdict = toeplitz_membership(2, point, tol=4e-6)
        assert verdict.status == "inconclusive"
        assert verdict.stop == "stall_near"
        assert -4e-5 < verdict.smallest_eigenvalue < -4e-6

    def test_coordinate_overflow_is_refused(self):
        verdict = toeplitz_membership(2, np.array([1.2, 0.0, 0.0, 0.0]))
        assert verdict.status == "not_member_likely"

    def test_agrees_with_lp_membership_away_from_boundary(self):
        k = 2
        hull_samples = symmetric_curve_samples(
            k, np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        )
        for theta in (0.4, 1.3, 2.7, 5.0):
            base = symmetric_curve(k, theta).coords
            for radius, expect_member in ((0.3, True), (0.9, True), (1.15, False)):
                point = radius * base
                lp_member = in_hull(point, hull_samples).verdict == "member"
                tz_member = toeplitz_membership(k, point).status == "member"
                assert lp_member == expect_member
                assert tz_member == expect_member

    def test_point_shape_validated(self):
        with pytest.raises(ValueError):
            toeplitz_membership(2, np.zeros(3))

    def test_deterministic_reruns(self):
        point = 0.8 * symmetric_curve(3, 2.0).coords
        v1 = toeplitz_membership(3, point)
        v2 = toeplitz_membership(3, point)
        assert v1.status == v2.status
        assert v1.iterations == v2.iterations
        assert np.array_equal(v1.matrix, v2.matrix)
