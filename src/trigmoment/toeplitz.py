"""Hermitian Toeplitz completions as a membership test for the curve hull.

A point (x_1..x_k, y_1..y_k) is encoded into a 2k x 2k Hermitian Toeplitz
matrix with unit diagonal whose entries at odd distances 2l-1 from the
diagonal are x_l + i y_l; the k-1 entries at even distances are free.  The
point lies in the hull of the symmetric trigonometric curve exactly when
some choice of the free entries makes the matrix positive semidefinite: a
curve point at angle theta admits the rank-one completion v v*, with
v_j = exp(-i j theta), and convex combinations inherit PSD completions.

Membership is decided by alternating projections between the positive
semidefinite cone and the affine set of admissible completions, run in the
real symmetric frame Q* T Q, Q = [[I, iI], [J, -iJ]] / sqrt(2) (J the
exchange matrix), which keeps T's spectrum (Lee, LAA 29, 1980).  A "member"
verdict is certified: the returned matrix satisfies the affine constraints
exactly and its smallest eigenvalue is above -tol.  Failure to converge is
reported as "not_member_likely" (the method cannot certify exclusion).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MembershipVerdict",
    "toeplitz_assemble",
    "min_eigenvalue",
    "toeplitz_membership",
]

# A rise of the smallest eigenvalue by less than this is rounding, not progress.
STALL_GAIN = 1e-13
# Iterations without such a rise before the search counts as stalled.
STALL_PATIENCE = 60


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    """Result of the Toeplitz completion search.

    ``matrix`` is the final affine-feasible iterate; for "member" verdicts
    its smallest eigenvalue (recorded in ``smallest_eigenvalue``) certifies
    positive semidefiniteness to within the tolerance used; it is computed
    on the returned complex matrix itself, not on the real-frame iterate.

    ``stop`` names the rule that ended the search: "psd" (an iterate, or
    one of the two starts when ``iterations`` is 0, was PSD within tol),
    "stall_far" / "stall_near" (a stall with the best smallest eigenvalue
    below / at or above -10*tol), or "budget" (the iteration budget ran
    out).
    """

    status: str  # "member", "not_member_likely", or "inconclusive"
    matrix: np.ndarray
    smallest_eigenvalue: float
    iterations: int
    stop: str


@functools.lru_cache(maxsize=None)
def _structure(n: int) -> tuple:
    """|j - i| and the mask j >= i of the n x n Toeplitz pattern, read-only."""
    dist = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
    parts = (np.abs(dist), dist >= 0)
    for a in parts:
        a.setflags(write=False)
    return parts


def _from_first_row(row: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrices from first rows (stacked along axis 0)."""
    abs_dist, upper = _structure(row.shape[-1])
    vals = row[..., abs_dist]
    return np.where(upper, vals, np.conj(vals))


def toeplitz_assemble(point, even_entries) -> np.ndarray:
    """Hermitian Toeplitz matrix for a point and a choice of free entries.

    ``point`` has length 2k; ``even_entries`` supplies the k-1 complex
    values at even distances 2, 4, ..., 2k-2 from the diagonal.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim != 1 or point.size < 2 or point.size % 2 != 0:
        raise ValueError(f"point must be a flat vector of even length, got {point.shape}")
    k = point.size // 2
    even_entries = np.asarray(even_entries, dtype=complex)
    if even_entries.shape != (k - 1,):
        raise ValueError(
            f"expected {k - 1} free entries for a point of length {2 * k}, "
            f"got {even_entries.shape}"
        )
    row = np.empty(2 * k, dtype=complex)
    row[0] = 1.0
    row[1::2] = point[:k] + 1j * point[k:]
    row[2::2] = even_entries
    return _from_first_row(row)


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix (symmetrized first)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    sym = 0.5 * (matrix + matrix.conj().T)
    return float(np.linalg.eigvalsh(sym)[0])


class _Frame(NamedTuple):
    """The real symmetric frame S = Re(Q* T Q) of the 2k x 2k completions.

    Column 2m (2m+1) of ``B`` is the flat image of the real (imaginary) unit
    at distance 2m+2.  The columns are orthogonal to each other and to the
    fixed diagonals, so ``Bp @ S.ravel()`` projects S onto the free entries.
    """

    Q: np.ndarray
    B: np.ndarray  # n^2 x 2(k-1)
    Bp: np.ndarray  # 2(k-1) x n^2


@functools.lru_cache(maxsize=None)
def _real_frame(k: int) -> _Frame:
    n = 2 * k
    eye, exchange = np.eye(k), np.eye(k)[::-1]
    Q = np.block([[eye, 1j * eye], [exchange, -1j * exchange]]) / math.sqrt(2.0)
    distances = np.repeat(np.arange(2, n, 2), 2)
    units = np.zeros((distances.size, n), dtype=complex)
    units[np.arange(distances.size), distances] = np.tile([1.0, 1j], k - 1)
    B = (Q.conj().T @ _from_first_row(units) @ Q).real.reshape(-1, n * n).T
    parts = _Frame(Q, B, (B / (2.0 * (n - distances))).T)
    for a in parts:
        a.setflags(write=False)
    return parts


def toeplitz_membership(k: int, point, tol: float = 1e-8,
                        max_iterations: int = 2000) -> MembershipVerdict:
    """Decide hull membership by searching for a PSD Toeplitz completion.

    Tries two deterministic starting completions (all-zero free entries,
    and the rank-one completion suggested by the phase of the first
    coordinate pair), then alternates projections between the PSD cone and
    the affine completion set.  A stall far from feasibility (smallest
    eigenvalue below -10*tol) means "not_member_likely", while a stall close
    to feasibility or exhausting the iteration budget mid-improvement is
    "inconclusive".
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    point = np.asarray(point, dtype=float)
    if point.shape != (2 * k,):
        raise ValueError(f"point must have shape ({2 * k},), got {point.shape}")
    if not np.all(np.isfinite(point)):
        raise ValueError(f"every coordinate of point must be finite, got {point}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not isinstance(max_iterations, int) or isinstance(max_iterations, bool):
        raise ValueError(f"max_iterations must be an integer, got {max_iterations!r}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")

    theta_hat = math.atan2(point[k], point[0])
    starts = [
        np.zeros(k - 1, dtype=complex),
        np.exp(1j * 2.0 * theta_hat * np.arange(1, k)),
    ]
    best_even, best_eig = None, -np.inf
    for even in starts:
        M = toeplitz_assemble(point, even)
        smallest = min_eigenvalue(M)
        if smallest >= -tol:
            return MembershipVerdict("member", M, smallest, 0, "psd")
        if smallest > best_eig:
            best_even, best_eig = even, smallest

    # p holds the free entries as (re, im) pairs: p.view(complex) reads them.
    n, frame, p = 2 * k, _real_frame(k), best_even.view(float)
    s0 = (frame.Q.conj().T @ toeplitz_assemble(point, starts[0]) @ frame.Q).real.ravel()
    best_seen, stall = -np.inf, 0
    # Running out of iterations with no stall means the smallest eigenvalue
    # still rises: too slow to certify, but no evidence of infeasibility.
    status, stop = "inconclusive", "budget"
    for iteration in range(1, max_iterations + 1):
        eigvals, eigvecs = np.linalg.eigh((s0 + frame.B @ p).reshape(n, n))
        if eigvals[0] >= -tol:
            M = toeplitz_assemble(point, p.view(complex))
            smallest = min_eigenvalue(M)
            if smallest >= -tol:
                return MembershipVerdict("member", M, smallest, iteration, "psd")
        if eigvals[0] > best_seen + STALL_GAIN:
            best_seen = float(eigvals[0])
            stall = 0
        else:
            stall += 1
            if stall >= STALL_PATIENCE:
                far = best_seen < -10.0 * tol
                status = "not_member_likely" if far else "inconclusive"
                stop = "stall_far" if far else "stall_near"
                break
        p = frame.Bp @ ((eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T).ravel()
    M = toeplitz_assemble(point, p.view(complex))
    return MembershipVerdict(status, M, min_eigenvalue(M), iteration, stop)
