"""Hermitian Toeplitz completions as a membership test for the curve hull.

A point (x_1..x_k, y_1..y_k) is encoded into a 2k x 2k Hermitian Toeplitz
matrix with unit diagonal whose entries at odd distances 2l-1 from the
diagonal are x_l + i y_l; the k-1 entries at even distances are free.  The
point lies in the hull of the symmetric trigonometric curve exactly when
some choice of the free entries makes the matrix positive semidefinite: a
curve point at angle theta admits the rank-one completion v v*, with
v_j = exp(-i j theta), and convex combinations inherit PSD completions.

Membership is decided by alternating projections between the positive
semidefinite cone and the affine set of admissible completions.  A "member"
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


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    """Result of the Toeplitz completion search.

    ``matrix`` is the final affine-feasible iterate; for "member" verdicts
    its smallest eigenvalue (recorded in ``smallest_eigenvalue``) certifies
    positive semidefiniteness to within the tolerance used.

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


def _first_row(point: np.ndarray, even_entries: np.ndarray) -> np.ndarray:
    k = point.size // 2
    row = np.empty(2 * k, dtype=complex)
    row[0] = 1.0
    row[1::2] = point[:k] + 1j * point[k:]
    row[2::2] = even_entries
    return row


class _Structure(NamedTuple):
    """Index arrays of the n x n Toeplitz pattern, shared read-only.

    The flat entries taken in ``diag_order`` run through the diagonals
    j - i = -(n-1), ..., n-1, each starting at its ``diag_starts`` entry, so
    one ``np.add.reduceat`` sums every diagonal with O(n^2) memory.
    """

    abs_dist: np.ndarray  # |j - i|
    upper: np.ndarray  # j >= i
    diag_order: np.ndarray
    diag_starts: np.ndarray
    lengths: np.ndarray  # n - d, the length of diagonal d >= 0
    fixed: np.ndarray  # distance 0 and the odd distances carry the point


@functools.lru_cache(maxsize=None)
def _structure(n: int) -> _Structure:
    dist = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
    lengths = np.arange(n, 0, -1)
    all_lengths = np.concatenate([lengths[:0:-1], lengths])
    fixed = np.arange(n) % 2 == 1
    fixed[0] = True
    parts = _Structure(np.abs(dist), dist >= 0,
                       np.argsort(dist.reshape(-1), kind="stable"),
                       np.cumsum(all_lengths) - all_lengths,
                       lengths.astype(float), fixed)
    for a in parts:
        a.setflags(write=False)
    return parts


def _from_first_row(row: np.ndarray) -> np.ndarray:
    s = _structure(row.shape[0])
    vals = row[s.abs_dist]
    return np.where(s.upper, vals, np.conj(vals))


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
    return _from_first_row(_first_row(point, even_entries))


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix (symmetrized first)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    sym = 0.5 * (matrix + matrix.conj().T)
    return float(np.linalg.eigvalsh(sym)[0])


def _affine_project(S: np.ndarray, fixed_row: np.ndarray) -> np.ndarray:
    """Nearest Toeplitz matrix agreeing with the fixed diagonals: free
    diagonals are averaged, fixed ones reset."""
    n = S.shape[0]
    s = _structure(n)
    sums = np.add.reduceat(S.reshape(-1)[s.diag_order], s.diag_starts)
    upper = sums[n - 1:] / s.lengths
    lower = sums[n - 1::-1] / s.lengths
    row = np.where(s.fixed, fixed_row, 0.5 * (upper + np.conj(lower)))
    return _from_first_row(row)


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
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")

    fixed_row = _first_row(point, np.zeros(k - 1, dtype=complex))

    theta_hat = math.atan2(point[k], point[0])
    starts = [
        np.zeros(k - 1, dtype=complex),
        np.exp(1j * 2.0 * theta_hat * np.arange(1, k)),
    ]
    best_start, best_eig = None, -np.inf
    for even in starts:
        M = toeplitz_assemble(point, even)
        smallest = min_eigenvalue(M)
        if smallest >= -tol:
            return MembershipVerdict("member", M, smallest, 0, "psd")
        if smallest > best_eig:
            best_start, best_eig = M, smallest

    M = best_start
    best_seen = -np.inf
    stall = 0
    for iteration in range(1, max_iterations + 1):
        eigvals, eigvecs = np.linalg.eigh(M)
        if eigvals[0] >= -tol:
            return MembershipVerdict("member", M, float(eigvals[0]), iteration,
                                     "psd")
        if eigvals[0] > best_seen + 1e-13:
            best_seen = float(eigvals[0])
            stall = 0
        else:
            stall += 1
            if stall >= 60:
                if best_seen < -10.0 * tol:
                    status, stop = "not_member_likely", "stall_far"
                else:
                    status, stop = "inconclusive", "stall_near"
                return MembershipVerdict(status, M, min_eigenvalue(M), iteration,
                                         stop)
        psd = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.conj().T
        M = _affine_project(psd, fixed_row)
    # Ran out of iterations while the smallest eigenvalue was still rising:
    # too slow to certify, but no evidence of infeasibility either.
    return MembershipVerdict("inconclusive", M, min_eigenvalue(M), iteration,
                             "budget")

