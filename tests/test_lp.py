"""Tests for the two-phase simplex solver.

Every problem is in the solver's one shape: equality rows over variables
that are nonnegative or free, so inequalities and bounds are written with
explicit slack, surplus and box columns.  Known-answer problems are worked
by hand; random instances are cross-checked against scipy's HiGHS-based
solver as an independent oracle (test-only dependency).
"""

import numpy as np
import pytest

from trigmoment.lp import FEAS_TOL, LinearProgram, lp_solve

scipy_linprog = pytest.importorskip("scipy.optimize", reason="scipy oracle").linprog


def solve(objective, A, rhs, free=None, maximize=False):
    return lp_solve(
        LinearProgram(objective=objective, A=A, rhs=rhs, free=free, maximize=maximize)
    )


def bounded_instance(rng, m, n, free):
    """min c @ x st A x = rhs with an optimum: rhs comes from a nonnegative
    point and c = A.T @ y plus a nonnegative part on the nonnegative
    variables, so the dual is feasible too."""
    A = rng.normal(size=(m, n))
    rhs = A @ rng.uniform(0.1, 1.0, n)
    c = A.T @ rng.normal(size=m) + np.where(free, 0.0, rng.uniform(0.1, 1.0, n))
    return c, A, rhs


class TestTrivialStatuses:
    def test_bounded_maximum(self):
        # max x st x + s = 1, x, s >= 0
        cert = solve([1.0, 0.0], [[1.0, 1.0]], [1.0], maximize=True)
        assert cert.status == "optimal"
        assert abs(cert.primal[0] - 1.0) < 1e-12
        assert abs(cert.objective_value - 1.0) < 1e-12

    def test_infeasible(self):
        # x - s1 = 1 and x + s2 = 0 with x free, s1, s2 >= 0
        cert = solve(
            [1.0, 0.0, 0.0],
            [[1.0, -1.0, 0.0], [1.0, 0.0, 1.0]],
            [1.0, 0.0],
            free=[True, False, False],
            maximize=True,
        )
        assert cert.status == "infeasible"

    def test_unbounded(self):
        # max x st x - s = 0 with x free, s >= 0
        cert = solve([1.0, 0.0], [[1.0, -1.0]], [0.0], free=[True, False], maximize=True)
        assert cert.status == "unbounded"


class TestKnownOptima:
    def test_two_variable_cover(self):
        # min x + y st x + 2y - s1 = 4, 3x + y - s2 = 6, all >= 0 -> 14/5
        cert = solve(
            [1.0, 1.0, 0.0, 0.0],
            [[1.0, 2.0, -1.0, 0.0], [3.0, 1.0, 0.0, -1.0]],
            [4.0, 6.0],
        )
        assert cert.status == "optimal"
        assert abs(cert.objective_value - 2.8) < 1e-9
        assert np.allclose(cert.primal[:2], [1.6, 1.2], atol=1e-9)

    def test_beale_cycling_example(self):
        # Classic degenerate instance that cycles under naive pivoting, with
        # its three slack columns; Bland's rule must terminate at -0.05.
        A = np.hstack([
            [[0.25, -60.0, -0.04, 9.0],
             [0.5, -90.0, -0.02, 3.0],
             [0.0, 0.0, 1.0, 0.0]],
            np.eye(3),
        ])
        cert = solve([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0], A, [0.0, 0.0, 1.0])
        assert cert.status == "optimal"
        assert abs(cert.objective_value - (-0.05)) < 1e-9

    def test_equality_with_free_variables(self):
        # min x - y st x + y = 3, x - y - s = -1, x and y free, s >= 0 -> -1
        cert = solve(
            [1.0, -1.0, 0.0],
            [[1.0, 1.0, 0.0], [1.0, -1.0, -1.0]],
            [3.0, -1.0],
            free=[True, True, False],
        )
        assert cert.status == "optimal"
        assert abs(cert.objective_value - (-1.0)) < 1e-9
        assert np.allclose(cert.primal[:2], [1.0, 2.0], atol=1e-9)


class TestFreeColumns:
    @pytest.mark.parametrize("seed", range(6))
    def test_free_variable_is_its_explicit_split(self, seed):
        # A free variable is solved as a nonnegative column followed right
        # away by its negation; writing that split out by hand must give
        # the same bits, which pins the column order.
        rng = np.random.default_rng(seed)
        n = 6
        free = rng.random(n) < 0.5
        free[seed % n] = True
        c, A, rhs = bounded_instance(rng, 3, n, free)
        maximize = seed % 2 == 1
        if maximize:
            c = -c
        cols = [j for j in range(n) for _ in range(1 + free[j])]
        signs = np.array([s for f in free for s in ((1.0, -1.0) if f else (1.0,))])
        split = solve(c[cols] * signs, A[:, cols] * signs, rhs, maximize=maximize)
        mine = solve(c, A, rhs, free=free, maximize=maximize)
        assert mine.status == split.status == "optimal"
        expected = np.zeros(n)
        np.add.at(expected, cols, signs * split.primal)
        assert np.array_equal(mine.primal, expected)
        assert np.array_equal(mine.dual, split.dual)
        assert mine.dual_gap == split.dual_gap


class TestCertificates:
    def test_duality_gap_reported(self):
        cert = solve(
            [1.0, 1.0, 0.0, 0.0],
            [[1.0, 2.0, -1.0, 0.0], [3.0, 1.0, 0.0, -1.0]],
            [4.0, 6.0],
        )
        assert cert.dual_gap is not None and cert.dual_gap < 1e-8
        assert abs(cert.dual @ np.array([4.0, 6.0]) - 2.8) < 1e-8

    def test_farkas_on_infeasible_combination(self):
        # One weight lambda >= 0 with 2*lambda = 1 and lambda = 1 is impossible.
        cert = solve([0.0], [[2.0], [1.0]], [1.0, 1.0])
        assert cert.status == "infeasible"
        y = cert.dual
        assert y @ np.array([2.0, 1.0]) <= FEAS_TOL
        assert y @ np.array([1.0, 1.0]) > FEAS_TOL

    def test_feasibility_only_problem(self):
        # Zero objective: phase 2 exits immediately, witness still checked.
        cert = solve(
            [0.0, 0.0, 0.0],
            [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]],
            [1.0, 0.25],
        )
        assert cert.status == "optimal"
        assert np.all(cert.primal >= -1e-12)
        assert abs(cert.primal.sum() - 1.0) < 1e-9


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve([1.0, 2.0], [[1.0]], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve([np.nan], [[1.0]], [1.0])

    def test_free_mask_length(self):
        with pytest.raises(ValueError, match="free mask"):
            solve([1.0], [[1.0]], [1.0], free=[True, False])


class TestDeterminism:
    def test_identical_runs_identical_bits(self):
        # A x + s = b and x + t = 2 with x, s, t >= 0: the inequality rows
        # and the box 0 <= x <= 2 spelled out as slack and box columns.
        rng = np.random.default_rng(42)
        A = rng.normal(size=(4, 6))
        b = rng.normal(size=4) + 3.0
        c = rng.normal(size=6)
        A_eq = np.block([
            [A, np.eye(4), np.zeros((4, 6))],
            [np.eye(6), np.zeros((6, 4)), np.eye(6)],
        ])
        rhs = np.concatenate([b, np.full(6, 2.0)])
        objective = np.concatenate([c, np.zeros(10)])
        a = solve(objective, A_eq, rhs)
        bb = solve(objective, A_eq, rhs)
        assert a.status == bb.status == "optimal"
        assert np.array_equal(a.primal, bb.primal)
        assert np.array_equal(a.dual, bb.dual)


class TestAgainstScipyOracle:
    def test_random_instances(self):
        # Equality rows over mixed nonnegative and free variables.  Half the
        # right-hand sides come from a nonnegative point (feasible) and half
        # of the costs are dual-feasible (bounded), so every status occurs.
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(60):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 8))
            free = rng.random(n) < 0.3
            c, A, rhs = bounded_instance(rng, m, n, free)
            if rng.random() < 0.5:
                rhs = rng.normal(size=m)
            if rng.random() < 0.5:
                c = rng.normal(size=n)
            maximize = bool(rng.integers(0, 2))
            if maximize:
                c = -c
            mine = solve(c, A, rhs, free=free, maximize=maximize)
            ref = scipy_linprog(
                -c if maximize else c, A_eq=A, b_eq=rhs,
                bounds=[(None, None) if f else (0.0, None) for f in free],
                method="highs",
            )
            expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
            assert mine.status == expected, f"trial {trial}"
            seen.add(expected)
            if expected == "optimal":
                ref_val = -ref.fun if maximize else ref.fun
                assert abs(mine.objective_value - ref_val) < 1e-6, f"trial {trial}"
            elif expected == "infeasible":
                # Farkas: y @ A <= 0 on nonnegative columns, = 0 on free ones.
                yA = mine.dual @ A
                assert np.all(yA[~free] <= 1e-7) and np.all(np.abs(yA[free]) <= 1e-7)
                assert mine.dual @ rhs > 0.0
        assert seen == {"optimal", "infeasible", "unbounded"}
