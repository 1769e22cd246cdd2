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
    _real_frame,
    min_eigenvalue,
    toeplitz_assemble,
    toeplitz_membership,
)


def curve_completion(k: int, theta: float):
    """The exact PSD completion at a curve point: even entries e^{2il*theta}."""
    point = symmetric_curve(k, theta)
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
    return hermitian_toeplitz(row)


def hermitian_toeplitz(row: np.ndarray) -> np.ndarray:
    """Entry (i, j) is row[j - i] on and above the diagonal, its conjugate below."""
    n = row.shape[0]
    return np.array([[row[j - i] if j >= i else np.conj(row[i - j])
                      for j in range(n)] for i in range(n)], dtype=complex)


def frame_project(S: np.ndarray, fixed_row: np.ndarray) -> np.ndarray:
    """Projection through the real frame: the free entries are Bp applied to
    Re(Q* S Q), the fixed ones come from ``fixed_row``."""
    frame = _real_frame(S.shape[0] // 2)
    p = frame.Bp @ (frame.Q.conj().T @ S @ frame.Q).real.ravel()
    point = np.concatenate([fixed_row[1::2].real, fixed_row[1::2].imag])
    return toeplitz_assemble(point, p[0::2] + 1j * p[1::2])


def reference_membership(k: int, point, tol: float = 1e-8,
                         max_iterations: int = 2000):
    """The complex alternating projections, one diagonal at a time:
    (status, stop, iterations, matrix)."""
    point = np.asarray(point, dtype=float)
    fixed_row = np.zeros(2 * k, dtype=complex)
    fixed_row[0] = 1.0
    fixed_row[1::2] = point[:k] + 1j * point[k:]
    theta_hat = math.atan2(point[k], point[0])
    best, best_eig = None, -np.inf
    for even in (np.zeros(k - 1), np.exp(1j * 2.0 * theta_hat * np.arange(1, k))):
        M = toeplitz_assemble(point, even)
        smallest = np.linalg.eigvalsh(M)[0]
        if smallest >= -tol:
            return "member", "psd", 0, M
        if smallest > best_eig:
            best, best_eig = M, smallest
    M, best_seen, stall = best, -np.inf, 0
    for iteration in range(1, max_iterations + 1):
        eigvals, eigvecs = np.linalg.eigh(M)
        if eigvals[0] >= -tol:
            return "member", "psd", iteration, M
        if eigvals[0] > best_seen + 1e-13:
            best_seen, stall = eigvals[0], 0
        else:
            stall += 1
            if stall >= 60:
                if best_seen < -10.0 * tol:
                    return "not_member_likely", "stall_far", iteration, M
                return "inconclusive", "stall_near", iteration, M
        psd = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.conj().T
        M = affine_project_by_diagonals(psd, fixed_row)
    return "inconclusive", "budget", iteration, M


def membership_battery():
    """Seeded (k, point) pairs for k = 1..6: interior mixtures, points
    outside the ball of radius sqrt(k), curve points and curve points
    scaled by 1.00001."""
    rng = np.random.default_rng(23)
    cases = []
    for k in range(1, 7):
        for _ in range(3):
            thetas = rng.uniform(0.0, 2.0 * math.pi, 2 * k + 1)
            weights = rng.dirichlet(np.ones(thetas.size))
            mixture = sum(w * symmetric_curve(k, t) for w, t in zip(weights, thetas))
            cases.append((k, rng.uniform(0.3, 0.95) * mixture))
            direction = rng.normal(size=2 * k)
            direction *= math.sqrt(k) * rng.uniform(1.05, 1.5) / np.linalg.norm(direction)
            cases.append((k, direction))
            curve = symmetric_curve(k, rng.uniform(0.0, 2.0 * math.pi))
            cases.append((k, curve))
            cases.append((k, 1.00001 * curve))
    return cases


class TestRealFrame:
    def test_frame_is_real_symmetric_with_the_same_spectrum(self):
        rng = np.random.default_rng(11)
        for k in range(1, 9):
            n = 2 * k
            Q = _real_frame(k).Q
            assert np.max(np.abs(Q.conj().T @ Q - np.eye(n))) <= 1e-15
            for _ in range(5):
                row = rng.normal(size=n) + 1j * rng.normal(size=n)
                row[0] = row[0].real
                T = hermitian_toeplitz(row)
                S = Q.conj().T @ T @ Q
                norm = np.linalg.norm(T)
                assert np.max(np.abs(S.imag)) <= 1e-14 * norm
                assert np.max(np.abs(S.real - S.real.T)) <= 1e-14 * norm
                assert np.max(np.abs(np.linalg.eigvalsh(S.real)
                                     - np.linalg.eigvalsh(T))) <= 1e-12

    def test_basis_is_a_left_inverse_that_ignores_fixed_diagonals(self):
        for k in range(1, 9):
            frame = _real_frame(k)
            assert frame.B.shape == (4 * k * k, 2 * (k - 1))
            assert np.max(np.abs(frame.Bp @ frame.B - np.eye(2 * (k - 1))), initial=0.0) <= 1e-15
            fixed = np.zeros(2 * k, dtype=complex)
            fixed[0] = 1.0
            fixed[1::2] = 1.0 + 1j
            S = (frame.Q.conj().T @ hermitian_toeplitz(fixed) @ frame.Q).real
            assert np.max(np.abs(frame.Bp @ S.ravel()), initial=0.0) <= 1e-14


class TestAffineProjection:
    def test_matches_per_diagonal_reference(self):
        # The frame exists for even orders and Hermitian matrices only,
        # which is all the search ever projects.
        rng = np.random.default_rng(5)
        for n in range(2, 13, 2):
            fixed_row = rng.normal(size=n) + 1j * rng.normal(size=n)
            fixed_row[0] = 1.0
            fixed = (np.arange(n) == 0) | (np.arange(n) % 2 == 1)
            for _ in range(3):
                R = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                S = 0.5 * (R + R.conj().T)
                got = frame_project(S, fixed_row)
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
                verdict = toeplitz_membership(k, symmetric_curve(k, theta))
                assert verdict.status == "member"
                assert (verdict.stop, verdict.iterations) == ("psd", 0)
                assert abs(verdict.smallest_eigenvalue) <= 1e-8
                eigs = np.linalg.eigvalsh(verdict.matrix)
                assert abs(eigs[-1] - 2 * k) < 1e-6  # near rank one
                assert abs(eigs[-2]) < 1e-6

    def test_member_certificate_is_affine_feasible(self):
        k = 3
        point = symmetric_curve(k, 1.3)
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
                w * symmetric_curve(k, t)
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
            symmetric_curve(k, t) for t in (0.5, 2.5, 4.5)
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
        point = 1.1 * symmetric_curve(k, 0.7)
        verdict = toeplitz_membership(k, point)
        assert verdict.status == "not_member_likely"
        assert verdict.stop == "stall_far"

    def test_stall_within_ten_tolerances_is_inconclusive(self):
        # Just outside the curve, the smallest eigenvalue stalls at about
        # -1.33e-5: below -tol, but not below -10*tol.
        point = 1.00001 * symmetric_curve(2, 0.7)
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
            base = symmetric_curve(k, theta)
            for radius, expect_member in ((0.3, True), (0.9, True), (1.15, False)):
                point = radius * base
                lp_member = in_hull(point, hull_samples).verdict == "member"
                tz_member = toeplitz_membership(k, point).status == "member"
                assert lp_member == expect_member
                assert tz_member == expect_member

    def test_point_shape_validated(self):
        with pytest.raises(ValueError):
            toeplitz_membership(2, np.zeros(3))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # tol = inf used to accept (3, 0, 0, 0), whose smallest eigenvalue
        # is -3.85, as a member.
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            toeplitz_membership(2, np.array([3.0, 0.0, 0.0, 0.0]), tol=tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="coordinate of point must be finite"):
            toeplitz_membership(2, np.array([0.1, bad, 0.0, 0.0]))

    @pytest.mark.parametrize("budget", [True, 10.0, "10", None])
    def test_iteration_budget_must_be_an_integer(self, budget):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            toeplitz_membership(2, np.array([0.1, 0.0, 0.0, 0.0]), max_iterations=budget)

    def test_deterministic_reruns(self):
        point = 0.8 * symmetric_curve(3, 2.0)
        v1 = toeplitz_membership(3, point)
        v2 = toeplitz_membership(3, point)
        assert v1.status == v2.status
        assert v1.iterations == v2.iterations
        assert np.array_equal(v1.matrix, v2.matrix)


class TestAgainstComplexReference:
    def test_status_and_stop_match_the_complex_search(self):
        for k, point in membership_battery():
            verdict = toeplitz_membership(k, point)
            status, stop, _, _ = reference_membership(k, point)
            assert (verdict.status, verdict.stop) == (status, stop), (k, point)

    def test_members_are_certified_on_the_returned_matrix(self):
        tol = 1e-8
        members = 0
        for k, point in membership_battery():
            verdict = toeplitz_membership(k, point, tol=tol)
            if verdict.status != "member":
                continue
            members += 1
            M = verdict.matrix
            assert verdict.smallest_eigenvalue == min_eigenvalue(M) >= -tol
            assert np.all(np.diagonal(M) == 1.0)
            for l in range(1, k + 1):
                want = point[l - 1] + 1j * point[k + l - 1]
                assert np.all(np.diagonal(M, offset=2 * l - 1) == want)
                assert np.all(np.diagonal(M, offset=1 - 2 * l) == np.conj(want))
        assert members >= 36
