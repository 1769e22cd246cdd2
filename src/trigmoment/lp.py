"""Dense two-phase simplex solver with dual certificates.

The solver is deliberately simple: a dense tableau and a two-phase start.
Entering columns are chosen by Dantzig's rule (most negative reduced cost,
leaving-row ties broken by the largest pivot element); after thirty pivots
without objective progress a phase switches to Bland's anti-cycling rule
(lowest eligible index enters, ratio ties broken by lowest basis index)
until the objective moves again.  Problem sizes in this package stay small
on one side (at most a few dozen rows after dualization, thousands of
columns), which dense numpy row operations handle comfortably and
deterministically.

Every optimal solve re-derives the basic solution and the row multipliers
from a fresh factorization of the final basis, and ``lp_solve`` verifies
primal feasibility and the duality gap before returning; an
infeasible phase 1 yields the Farkas row combination used elsewhere to build
separating functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9        # feasibility / optimality tolerance
GAP_TOL = 1e-8         # allowed duality gap on optimal results
MAX_PIVOTS = 200_000   # pivots per solve before giving up

__all__ = ["FEAS_TOL", "GAP_TOL", "LinearProgram", "LPCertificate", "lp_solve"]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min (or max) objective @ x subject to A @ x = rhs.

    Every variable is nonnegative except those marked in ``free``, a boolean
    mask with one entry per variable; None means no variable is free.
    """

    objective: np.ndarray
    A: np.ndarray
    rhs: np.ndarray
    free: np.ndarray | None = None
    maximize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        if self.free is not None:
            object.__setattr__(self, "free", np.asarray(self.free, dtype=bool))


@dataclass(frozen=True, eq=False)
class LPCertificate:
    """Outcome of a solve.

    For "optimal": ``primal`` satisfies every row within the relative bound
    FEAS_TOL * max(1, max|b|, max|x|) and achieves ``objective_value``;
    ``dual`` holds one multiplier per original row and
    the verified duality gap is stored in ``dual_gap``.  For "infeasible":
    ``dual`` holds a Farkas combination y of the original rows (y @ A <= 0
    on the nonnegative variables, y @ A = 0 on the free ones, y @ rhs > 0).
    For "unbounded" only the status is meaningful.
    """

    status: str
    primal: np.ndarray | None = None
    objective_value: float | None = None
    dual: np.ndarray | None = None
    dual_gap: float | None = None


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def _pivot_step(tab: np.ndarray, basis: np.ndarray, n_allowed: int, use_bland: bool):
    """One simplex pivot; returns "optimal", "unbounded" or "pivoted".

    Entering column: most negative reduced cost (Dantzig) normally, lowest
    eligible index (Bland) when the caller detects a degenerate stall.
    Leaving row: minimum ratio, ties broken by lowest basis index.
    """
    cost = tab[-1, :n_allowed]
    if use_bland:
        eligible = np.nonzero(cost < -FEAS_TOL)[0]
        if eligible.size == 0:
            return "optimal"
        col = int(eligible[0])
    else:
        col = int(np.argmin(cost))
        if cost[col] >= -FEAS_TOL:
            return "optimal"
    column = tab[:-1, col]
    rows = np.nonzero(column > FEAS_TOL)[0]
    if rows.size == 0:
        return "unbounded"
    ratios = tab[:-1, -1][rows] / column[rows]
    best = np.min(ratios)
    ties = rows[ratios <= best + 1e-12]
    if use_bland:
        row = int(ties[np.argmin(basis[ties])])
    else:
        # Among tied rows prefer the largest pivot element for stability.
        row = int(ties[np.argmax(column[ties])])
    _pivot(tab, basis, row, col)
    return "pivoted"


def _run_phase(tab: np.ndarray, basis: np.ndarray, n_allowed: int, pivots: int):
    """Pivot to optimality.  Dantzig selection with a permanent-progress
    guarantee: thirty pivots without objective movement switch to Bland's
    rule (immune to cycling) until the objective moves again."""
    last_obj = tab[-1, -1]
    stalled = 0
    while True:
        step = _pivot_step(tab, basis, n_allowed, use_bland=stalled >= 30)
        if step != "pivoted":
            return step, pivots
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError(f"simplex exceeded {MAX_PIVOTS} pivots")
        obj = tab[-1, -1]
        if obj > last_obj + 1e-12 * max(1.0, abs(last_obj)):
            last_obj = obj
            stalled = 0
        else:
            stalled += 1


def _simplex_standard(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """min c @ x s.t. A x = b, x >= 0 by the two-phase tableau method.

    Returns (status, x, y) where y are the row multipliers in the
    coordinates of the rows as given; on "infeasible" y is a Farkas
    certificate with y @ A <= FEAS_TOL componentwise and y @ b > 0.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape

    signs = np.where(b < 0.0, -1.0, 1.0)
    A_w = A * signs[:, None]
    b_w = b * signs

    # Tableau [A | I | b] plus a reduced-cost row; artificials start basic.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A_w
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b_w
    basis = np.arange(n, n + m)

    # Phase 1: minimize the artificial sum.
    tab[-1, :] = -tab[:m, :].sum(axis=0)
    tab[-1, n:n + m] = 0.0
    step, pivots = _run_phase(tab, basis, n, 0)
    if step == "unbounded":  # cannot happen: phase-1 objective >= 0
        raise RuntimeError("phase-1 reported unbounded")
    phase1 = -tab[-1, -1]
    if phase1 > FEAS_TOL * max(1.0, float(np.abs(b_w).sum())):
        c1_basic = (basis >= n).astype(float)
        y = c1_basic @ tab[:m, n:n + m]
        return "infeasible", None, y * signs

    # Drive any leftover artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            col = int(np.argmax(np.abs(tab[r, :n])))
            if abs(tab[r, col]) > FEAS_TOL:
                _pivot(tab, basis, r, col)
            else:
                keep[r] = False
    kept_rows = np.nonzero(keep)[0]
    m_orig = m
    if not np.all(keep):
        tab = np.vstack([tab[:m][keep], tab[-1:]])
        basis = basis[keep]
        A_w, b_w, signs = A_w[keep], b_w[keep], signs[keep]
        m = int(keep.sum())

    # Phase 2 with the real costs.
    c_basic = c[basis]
    tab[-1, :n] = c - c_basic @ tab[:m, :n]
    tab[-1, n:n + m] = -c_basic @ tab[:m, n:n + m]
    tab[-1, -1] = -c_basic @ tab[:m, -1]
    step, pivots = _run_phase(tab, basis, n, pivots)
    if step == "unbounded":
        return "unbounded", None, None

    # Fresh recomputation from the final basis for accuracy; keep the
    # incrementally updated tableau values instead if the basis matrix is
    # too ill-conditioned for the fresh solve to satisfy the constraints.
    x_basic = tab[:m, -1]
    y = c[basis] @ tab[:m, n:n + m]
    B = A_w[:, basis]
    scale = max(1.0, float(np.abs(b_w).max(initial=0.0)))
    try:
        cand_x = np.linalg.solve(B, b_w)
        cand_y = np.linalg.solve(B.T, c[basis])
        tab_resid = float(np.abs(B @ x_basic - b_w).max(initial=0.0))
        fresh_resid = float(np.abs(B @ cand_x - b_w).max(initial=0.0))
        if fresh_resid <= max(tab_resid, FEAS_TOL * scale):
            x_basic, y = cand_x, cand_y
    except np.linalg.LinAlgError:
        pass
    x = np.zeros(n)
    x[basis] = x_basic
    np.clip(x, 0.0, None, out=x)
    y_full = np.zeros(m_orig)
    y_full[kept_rows] = y * signs
    return "optimal", x, y_full


def lp_solve(lp: LinearProgram) -> LPCertificate:
    """Solve an equality-form LP; deterministic for identical input.

    The standard form keeps one column per variable, with each free
    variable's negated copy right after it.  This column order fixes the
    simplex's pivot path, and with it the certificates, so it must not
    change.  Optimal results are checked for primal feasibility and duality
    gap before being returned.
    """
    c0 = lp.objective
    A0 = lp.A
    b0 = lp.rhs
    if A0.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = A0.shape
    if c0.shape != (n,) or b0.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.all(np.isfinite(A0)) and np.all(np.isfinite(b0)) and np.all(np.isfinite(c0))):
        raise ValueError("LP data must be finite")
    free = np.zeros(n, dtype=bool) if lp.free is None else lp.free
    if free.shape != (n,):
        raise ValueError("free mask length must match variable count")

    width = 1 + free
    var_idx = np.repeat(np.arange(n), width)
    col_sign = np.ones(var_idx.size)
    col_sign[np.cumsum(width)[free] - 1] = -1.0
    A_std = A0[:, var_idx] * col_sign
    c_std = (-c0 if lp.maximize else c0)[var_idx] * col_sign

    status, z, y = _simplex_standard(A_std, b0, c_std)

    if status == "infeasible":
        return LPCertificate(status="infeasible", dual=y)
    if status == "unbounded":
        return LPCertificate(status="unbounded")

    x = np.zeros(n)
    np.add.at(x, var_idx, col_sign * z)

    # Verify the certificate before handing it out.
    scale = max(1.0, float(np.abs(b0).max(initial=0.0)), float(np.abs(x).max(initial=0.0)))
    resid = np.abs(A0 @ x - b0)
    if resid.max(initial=0.0) > FEAS_TOL * scale:
        row = int(np.argmax(resid))
        raise RuntimeError(f"optimal point violates row {row} by {resid[row]:.3e}")
    gap = abs(float(y @ b0) - float(c_std @ z))
    if gap > GAP_TOL * scale:
        raise RuntimeError(f"duality gap {gap:.3e} exceeds tolerance")

    return LPCertificate(
        status="optimal",
        primal=x,
        objective_value=float(c0 @ x),
        dual=-y if lp.maximize else y,
        dual_gap=float(gap),
    )
