"""Membership via Toeplitz completion: the body as a projected spectrahedron.

A point x + iy (odd-frequency cosine and sine parts) lies in the body
exactly when some unit-diagonal Hermitian Toeplitz matrix with those
odd-distance entries is positive semidefinite, the free parameters being
the even-distance entries.  Alternating projections search for such a
completion; verdicts come with the certificate matrix.
"""

import numpy as np

from trigmoment.angles import symmetric_curve
from trigmoment.toeplitz import toeplitz_assemble, toeplitz_membership


def main():
    k = 2
    print("curve points certify instantly with a rank-one completion")
    print("----------------------------------------------------------")
    point = symmetric_curve(k, 1.0)
    verdict = toeplitz_membership(k, point)
    spectrum = np.linalg.eigvalsh(verdict.matrix)
    print(f"  SM_4(1.0): {verdict.status} after {verdict.iterations} iterations")
    print(f"  certificate spectrum: {np.round(spectrum, 12)}  (rank one, trace 2k)")
    print()

    print("the origin completes to the identity matrix")
    print("-------------------------------------------")
    verdict = toeplitz_membership(k, np.zeros(2 * k))
    print(f"  status {verdict.status}, smallest eigenvalue "
          f"{verdict.smallest_eigenvalue} (the identity's)")
    print()

    print("points beyond the body stall far from feasibility")
    print("--------------------------------------------------")
    verdict = toeplitz_membership(k, 1.1 * point)
    print(f"  1.1 * SM_4(1.0): {verdict.status} "
          f"(smallest eigenvalue stuck at {verdict.smallest_eigenvalue:.4f})")
    print()

    print("slow convergence is reported, not guessed")
    print("-----------------------------------------")
    deep = sum(symmetric_curve(3, t) for t in (0.5, 2.5, 4.5)) / 3.0
    strict = toeplitz_membership(3, deep)
    relaxed = toeplitz_membership(3, deep, tol=1e-5)
    print(f"  three-point mix at k=3, tol=1e-8: {strict.status} "
          f"(still improving at {strict.smallest_eigenvalue:.2e})")
    print(f"  same point, tol=1e-5:            {relaxed.status}")
    print()

    print("assembling a completion by hand")
    print("-------------------------------")
    M = toeplitz_assemble(point, even_entries=np.array([np.exp(2j)]))
    print("  unit diagonal:", np.allclose(np.diagonal(M), 1.0))
    print("  prescribed odd entries:",
          np.allclose(np.diagonal(M, 1), point[0] + 1j * point[k]))
    print("  smallest eigenvalue:", f"{np.linalg.eigvalsh(M)[0]:.6f}")


if __name__ == "__main__":
    main()
