"""Tests for the two-phase simplex solver.

Known-answer problems are worked by hand; random instances are cross-checked
against scipy's HiGHS-based solver as an independent oracle (test-only
dependency).
"""

import numpy as np
import pytest

from trigmoment.lp import FEAS_TOL, LinearProgram, LPCertificate, lp_solve

scipy_linprog = pytest.importorskip("scipy.optimize", reason="scipy oracle").linprog


def solve(objective, A, relations, rhs, bounds=None, maximize=False):
    return lp_solve(
        LinearProgram(
            objective=np.asarray(objective, dtype=float),
            A=np.asarray(A, dtype=float),
            relations=tuple(relations),
            rhs=np.asarray(rhs, dtype=float),
            bounds=bounds,
            maximize=maximize,
        )
    )


class TestTrivialStatuses:
    def test_bounded_maximum(self):
        cert = solve([1.0], [[1.0]], ["<="], [1.0], bounds=[(0.0, None)], maximize=True)
        assert cert.status == "optimal"
        assert abs(cert.primal[0] - 1.0) < 1e-12
        assert abs(cert.objective_value - 1.0) < 1e-12

    def test_infeasible(self):
        cert = solve(
            [1.0],
            [[1.0], [1.0]],
            [">=", "<="],
            [1.0, 0.0],
            bounds=[(None, None)],
            maximize=True,
        )
        assert cert.status == "infeasible"

    def test_unbounded(self):
        cert = solve([1.0], [[1.0]], [">="], [0.0], maximize=True)
        assert cert.status == "unbounded"


class TestKnownOptima:
    def test_two_variable_cover(self):
        # min x + y st x + 2y >= 4, 3x + y >= 6, x, y >= 0 -> 14/5
        cert = solve(
            [1.0, 1.0],
            [[1.0, 2.0], [3.0, 1.0]],
            [">=", ">="],
            [4.0, 6.0],
            bounds=[(0.0, None)] * 2,
        )
        assert cert.status == "optimal"
        assert abs(cert.objective_value - 2.8) < 1e-9
        assert np.allclose(cert.primal, [1.6, 1.2], atol=1e-9)

    def test_beale_cycling_example(self):
        # Classic degenerate instance that cycles under naive pivoting;
        # Bland's rule must terminate at value -0.05.
        cert = solve(
            [-0.75, 150.0, -0.02, 6.0],
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            ["<=", "<=", "<="],
            [0.0, 0.0, 1.0],
            bounds=[(0.0, None)] * 4,
        )
        assert cert.status == "optimal"
        assert abs(cert.objective_value - (-0.05)) < 1e-9

    def test_equality_with_free_variables(self):
        # min x - y st x + y = 3, x - y >= -1, x and y free -> -1
        cert = solve(
            [1.0, -1.0],
            [[1.0, 1.0], [1.0, -1.0]],
            ["=", ">="],
            [3.0, -1.0],
        )
        assert cert.status == "optimal"
        assert abs(cert.objective_value - (-1.0)) < 1e-9
        assert np.allclose(cert.primal, [1.0, 2.0], atol=1e-9)

    def test_double_bounded_variables(self):
        cert = solve(
            [1.0, 1.0],
            [[1.0, 1.0]],
            ["<="],
            [3.0],
            bounds=[(-1.0, 2.0), (0.0, 5.0)],
            maximize=True,
        )
        assert cert.status == "optimal"
        assert abs(cert.objective_value - 3.0) < 1e-9

    def test_upper_bounded_only(self):
        cert = solve([1.0], [[1.0]], [">="], [-10.0], bounds=[(None, 2.0)])
        assert cert.status == "optimal"
        assert abs(cert.objective_value - (-10.0)) < 1e-9


class TestCertificates:
    def test_duality_gap_reported(self):
        cert = solve(
            [1.0, 1.0],
            [[1.0, 2.0], [3.0, 1.0]],
            [">=", ">="],
            [4.0, 6.0],
            bounds=[(0.0, None)] * 2,
        )
        assert cert.dual_gap is not None and cert.dual_gap < 1e-8
        assert abs(cert.dual @ np.array([4.0, 6.0]) - 2.8) < 1e-8

    def test_farkas_on_infeasible_combination(self):
        # One weight lambda >= 0 with 2*lambda = 1 and lambda = 1 is impossible.
        cert = solve([0.0], [[2.0], [1.0]], ["=", "="], [1.0, 1.0], bounds=[(0.0, None)])
        assert cert.status == "infeasible"
        y = cert.dual
        assert y @ np.array([2.0, 1.0]) <= FEAS_TOL
        assert y @ np.array([1.0, 1.0]) > FEAS_TOL

    def test_feasibility_only_problem(self):
        # Zero objective: phase 2 exits immediately, witness still checked.
        cert = solve(
            [0.0, 0.0, 0.0],
            [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]],
            ["=", "="],
            [1.0, 0.25],
            bounds=[(0.0, None)] * 3,
        )
        assert cert.status == "optimal"
        assert np.all(cert.primal >= -1e-12)
        assert abs(cert.primal.sum() - 1.0) < 1e-9


class TestInfiniteBounds:
    def test_infinite_bounds_match_none(self):
        # min c @ x st A x = b with x0, x1 free and x2..x4 >= 0; c is built
        # from a dual-feasible y, so the optimum exists.
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 5))
        rhs = A @ rng.uniform(0.1, 1.0, 5)
        c = A.T @ rng.normal(size=3) + np.array([0.0, 0.0, 0.3, 0.7, 1.1])
        relations = ["="] * 3
        with_none = solve(c, A, relations, rhs, bounds=[(None, None)] * 2 + [(0.0, None)] * 3)
        assert with_none.status == "optimal"
        inf_pairs = [(-np.inf, np.inf)] * 2 + [(0.0, np.inf)] * 3
        for bounds in (inf_pairs, np.array(inf_pairs)):
            with_inf = solve(c, A, relations, rhs, bounds=bounds)
            assert with_inf.status == "optimal"
            assert np.array_equal(with_inf.primal, with_none.primal)
            assert np.array_equal(with_inf.dual, with_none.dual)
            assert with_inf.objective_value == with_none.objective_value


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve([1.0, 2.0], [[1.0]], ["<="], [1.0])

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            solve([1.0], [[1.0]], ["<"], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve([np.nan], [[1.0]], ["<="], [1.0])

    def test_empty_bound_interval(self):
        with pytest.raises(ValueError):
            solve([1.0], [[1.0]], ["<="], [1.0], bounds=[(2.0, 1.0)])


class TestDeterminism:
    def test_identical_runs_identical_bits(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(4, 6))
        b = rng.normal(size=4) + 3.0
        c = rng.normal(size=6)
        a = solve(c, A, ["<="] * 4, b, bounds=[(0.0, 2.0)] * 6)
        bb = solve(c, A, ["<="] * 4, b, bounds=[(0.0, 2.0)] * 6)
        assert a.status == bb.status == "optimal"
        assert np.array_equal(a.primal, bb.primal)


class TestAgainstScipyOracle:
    @staticmethod
    def _to_scipy(c, A, relations, rhs, bounds, maximize):
        A = np.asarray(A, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        ub_rows = [i for i, r in enumerate(relations) if r == "<="]
        ge_rows = [i for i, r in enumerate(relations) if r == ">="]
        eq_rows = [i for i, r in enumerate(relations) if r == "="]
        A_ub = np.vstack([A[ub_rows], -A[ge_rows]]) if ub_rows or ge_rows else None
        b_ub = np.concatenate([rhs[ub_rows], -rhs[ge_rows]]) if ub_rows or ge_rows else None
        A_eq = A[eq_rows] if eq_rows else None
        b_eq = rhs[eq_rows] if eq_rows else None
        c_eff = -np.asarray(c, dtype=float) if maximize else np.asarray(c, dtype=float)
        return c_eff, A_ub, b_ub, A_eq, b_eq

    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 7))
            A = rng.normal(size=(m, n))
            rhs = rng.normal(size=m)
            c = rng.normal(size=n)
            relations = [str(rng.choice(["<=", ">=", "="])) for _ in range(m)]
            bounds = [(-2.0, 3.0)] * n  # boxed: always bounded
            maximize = bool(rng.integers(0, 2))
            mine = solve(c, A, relations, rhs, bounds=bounds, maximize=maximize)
            c_eff, A_ub, b_ub, A_eq, b_eq = self._to_scipy(c, A, relations, rhs, bounds, maximize)
            ref = scipy_linprog(
                c_eff, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                bounds=bounds, method="highs",
            )
            if ref.status == 2:
                assert mine.status == "infeasible", f"trial {trial}"
            else:
                assert ref.status == 0 and mine.status == "optimal", f"trial {trial}"
                ref_val = -ref.fun if maximize else ref.fun
                assert abs(mine.objective_value - ref_val) < 1e-6, f"trial {trial}"
