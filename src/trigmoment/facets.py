"""Facet geometry on the top facet of the cosine-curve hull.

The convex hull of the cosine moment curve C_k has a facet on the hyperplane
{x_k = 1}.  Working in the coordinates of that hyperplane (R^{k-1}, the last
coordinate dropped), two simplices arise from curve points at the node angles

    theta_0 = pi/2,   theta_j = 2*j*pi/(2k-1)   (j = 1..k-1):

* the outer simplex with vertices C_{k-1}(0), C_{k-1}(theta_1), ...,
  C_{k-1}(theta_{k-1}), and
* the inner simplex with vertices C_{k-1}(theta_0), ..., C_{k-1}(theta_{k-1}),
  which is cut out by the affine functionals

      h_0(x) = 1/2 + sum_l x_l,
      h_j(x) = sum_l (cos((2l-1)*theta_j) - 1) * x_l      (j = 1..k-1).

Restricting h_j to the curve gives the trigonometric polynomial
f_j(theta) = h_j(C_{k-1}(theta)), whose roots and signs this module produces
in closed form, verifies against an independent bisection root finder, and
ties to the three node-angle cosine identities (each sum equals -1/2) that
make the construction work.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from trigmoment.angles import (
    Angle,
    cos_at,
    cosine_curve,
    cosine_curve_samples,
    rational_angle,
)

# Tolerance ladder of this module's geometric checks (the LP, hull, edge and
# Toeplitz layers keep their own tolerances).
ZERO_TOL = 1e-10   # structural zeros (vanishing pattern, root residuals)
RECON_TOL = 1e-12  # convex-combination reconstructions

__all__ = [
    "ZERO_TOL",
    "RECON_TOL",
    "AffineFunctional",
    "ConvexCombination",
    "SimplexSpec",
    "FacetReport",
    "facet_nodes",
    "facet_functional",
    "facet_curve_poly",
    "facet_curve_poly_grid",
    "facet_curve_roots",
    "verify_facet_description",
    "origin_witness",
    "outer_simplex",
    "inner_simplex",
    "trig_identity_residual",
    "all_trig_identity_residuals",
    "bisect_roots",
]


@dataclass(frozen=True, eq=False)
class AffineFunctional:
    """h(x) = constant + coeffs . x on R^{len(coeffs)}."""

    coeffs: np.ndarray
    constant: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def __call__(self, x) -> float:
        return float(self.constant + self.coeffs @ np.asarray(x, dtype=float))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class ConvexCombination:
    """Nonnegative weights summing to one over rows of ``points``."""

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    def combine(self) -> np.ndarray:
        return self.weights @ self.points

    def reconstruction_error(self, target) -> float:
        return float(np.max(np.abs(self.combine() - np.asarray(target, dtype=float))))


@dataclass(frozen=True, eq=False)
class SimplexSpec:
    """A simplex with k curve-point vertices in R^{k-1}, at ``vertex_angles``."""

    k: int
    vertices: np.ndarray  # (k, k-1)
    vertex_angles: tuple


def facet_nodes(k: int) -> list[Angle]:
    """The node angles [pi/2, 2*pi/(2k-1), ..., 2(k-1)*pi/(2k-1)], exact."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return [rational_angle(1, 2)] + [
        rational_angle(2 * j, 2 * k - 1) for j in range(1, k)
    ]


def facet_functional(k: int, j: int) -> AffineFunctional:
    """The j-th facet functional of the inner simplex, on R^{k-1}."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must be in 0..{k - 1}, got {j}")
    if j == 0:
        return AffineFunctional(np.ones(k - 1), 0.5)
    node = rational_angle(2 * j, 2 * k - 1)
    coeffs = np.array([cos_at(2 * l - 1, node) - 1.0 for l in range(1, k)])
    return AffineFunctional(coeffs, 0.0)


def facet_curve_poly(k: int, j: int, theta: "Angle | float") -> float:
    """f_j(theta) = h_j(C_{k-1}(theta)), the facet functional along the curve."""
    fn = facet_functional(k, j)
    return fn(cosine_curve(k - 1, theta))


def facet_curve_poly_grid(k: int, j: int, thetas: np.ndarray) -> np.ndarray:
    """Vectorized f_j over an array of float angles."""
    fn = facet_functional(k, j)
    return cosine_curve_samples(k - 1, thetas) @ fn.coeffs + fn.constant


def facet_curve_roots(k: int, j: int) -> list[Angle]:
    """Closed-form roots of f_j in [0, pi]: exactly 2k-3 of them, ascending.

    j = 0: the nonzero nodes plus the odd multiples (2i-1)*pi/(2k-3),
    i = 1..k-2.  j >= 1: pi/2 plus i*pi/(2k-1) for i in {1,...,2k-2} with
    i = 2j and i = 2k-1-2j removed.  Every root has multiplicity one.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must be in 0..{k - 1}, got {j}")
    if j == 0:
        roots = [rational_angle(2 * i, 2 * k - 1) for i in range(1, k)]
        roots += [rational_angle(2 * i - 1, 2 * k - 3) for i in range(1, k - 1)]
    else:
        skip = {2 * j, 2 * k - 1 - 2 * j}
        roots = [rational_angle(1, 2)]
        roots += [
            rational_angle(i, 2 * k - 1)
            for i in range(1, 2 * k - 1)
            if i not in skip
        ]
    roots.sort(key=lambda a: a.value)
    assert len(roots) == 2 * k - 3
    return roots


@dataclass(frozen=True)
class FacetReport:
    """Vanishing-pattern check of the inner simplex's facet description.

    ``entries`` holds (j, i, value, ok): off-diagonal pairs must vanish
    within tol, diagonal pairs must be strictly positive above tol.
    """

    k: int
    tol: float
    entries: tuple
    max_offdiagonal: float
    min_diagonal: float
    passed: bool


def verify_facet_description(k: int, tol: float = ZERO_TOL) -> FacetReport:
    """Check f_j(theta_i) = 0 for i != j and f_j(theta_j) > tol, all pairs."""
    nodes = facet_nodes(k)
    entries = []
    max_off = 0.0
    min_diag = math.inf
    for j in range(k):
        for i in range(k):
            v = facet_curve_poly(k, j, nodes[i])
            if i == j:
                ok = v > tol
                min_diag = min(min_diag, v)
            else:
                ok = abs(v) < tol
                max_off = max(max_off, abs(v))
            entries.append((j, i, v, ok))
    passed = all(e[3] for e in entries)
    return FacetReport(k, tol, tuple(entries), max_off, min_diag, passed)


def origin_witness(k: int) -> ConvexCombination:
    """The origin as an explicit convex combination of outer-simplex vertices.

    C_{k-1}(pi/2) = 0 = (2/(2k-1)) * ((1/2) C_{k-1}(0) + sum_j C_{k-1}(theta_j)),
    i.e. weight 1/(2k-1) on the angle-0 vertex and 2/(2k-1) on each of the
    k-1 node vertices.  This places the inner simplex's distinguished vertex
    inside the outer simplex, hence inner inside outer.
    """
    simplex = outer_simplex(k)
    n = 2 * k - 1
    weights = np.full(k, 2.0 / n)
    weights[0] = 1.0 / n
    return ConvexCombination(weights, simplex.vertices)


def outer_simplex(k: int) -> SimplexSpec:
    """Simplex spanned by C_{k-1} at angle 0 and the nonzero nodes."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    angles = [rational_angle(0, 1)] + [
        rational_angle(2 * j, 2 * k - 1) for j in range(1, k)
    ]
    vertices = np.array([cosine_curve(k - 1, a) for a in angles])
    return SimplexSpec(k, vertices, tuple(angles))


def inner_simplex(k: int) -> SimplexSpec:
    """Simplex spanned by C_{k-1} at all k nodes; ``facet_functional(k, j)``
    gives its facets."""
    angles = facet_nodes(k)
    vertices = np.array([cosine_curve(k - 1, a) for a in angles])
    return SimplexSpec(k, vertices, tuple(angles))


# The three node-angle cosine identities; every sum below equals -1/2.
_IDENTITY_KINDS = ("node-sum", "frequency-sum", "product-sum")


def _node_cosines(k: int) -> list[tuple[float, ...]]:
    """Table of cos((2l-1) * theta_j) at the nodes theta_j = 2j*pi/(2k-1).

    Entry ``[j][l - 1]`` is ``cos_at(2l - 1, rational_angle(2j, 2k - 1))``
    for j = 0..2k-2 and l = 1..k-1: the very values the per-term sums use,
    so sums over the table reproduce them bit for bit.
    """
    n = 2 * k - 1
    nodes = [rational_angle(2 * j, n) for j in range(n)]
    rows = [[cos_at(2 * l - 1, a) for a in nodes] for l in range(1, k)]
    return list(zip(*rows))


def _identity_residual(table: list[tuple[float, ...]], which: str, idx) -> float:
    """|sum - (-1/2)| of one identity instance from the node-cosine table,
    summed with builtin ``sum`` in the order of the definitions in
    ``trig_identity_residual``: over j for node-sum, over l otherwise."""
    if which == "node-sum":
        k = len(table[0]) + 1
        s = sum(table[j][idx - 1] for j in range(1, k))
    elif which == "frequency-sum":
        s = sum(table[idx])
    else:
        i, j = idx
        s = sum(map(operator.mul, table[i], table[j]))
    return abs(s - (-0.5))


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_index(which: str, k: int, idx) -> None:
    """Raise ValueError unless idx is a valid index of the identity kind."""
    if which == "node-sum":
        if not (_is_int(idx) and 1 <= idx <= k - 1):
            raise ValueError(
                f"node-sum index must be an integer l in 1..{k - 1}, got {idx!r}")
    elif which == "frequency-sum":
        if not (_is_int(idx) and 1 <= idx <= 2 * k - 2):
            raise ValueError(
                f"frequency-sum index must be an integer j in 1..{2 * k - 2}, got {idx!r}")
    elif which == "product-sum":
        pair = isinstance(idx, (tuple, list)) and len(idx) == 2 and all(map(_is_int, idx))
        if not (pair and idx[0] != idx[1] and all(0 <= v <= k - 1 for v in idx)):
            raise ValueError(
                f"product-sum index must be a pair (i, j) of integers with "
                f"i != j in 0..{k - 1}, got {idx!r}")
    else:
        raise ValueError(f"unknown identity kind {which!r}; choose from {_IDENTITY_KINDS}")


def trig_identity_residual(which: str, k: int, idx) -> float:
    """|sum - (-1/2)| for one instance of a node-angle cosine identity.

    which = "node-sum":      sum_{j=1}^{k-1} cos((2l-1) * 2j*pi/(2k-1)),
                             idx = l in 1..k-1;
    which = "frequency-sum": sum_{l=1}^{k-1} cos((2l-1) * 2j*pi/(2k-1)),
                             idx = j in 1..2k-2;
    which = "product-sum":   sum_{l=1}^{k-1} cos((2l-1) * 2i*pi/(2k-1))
                                           * cos((2l-1) * 2j*pi/(2k-1)),
                             idx = (i, j) with i != j in 0..k-1.

    A malformed index (wrong type or out of range) raises ValueError.  The
    sum comes from the whole node-cosine table of this k, the same code
    ``all_trig_identity_residuals`` uses, so one instance costs
    (k-1)(2k-1) cosine evaluations (~4.9 k at k = 50); loop over
    ``all_trig_identity_residuals`` for many instances.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _check_index(which, k, idx)
    return _identity_residual(_node_cosines(k), which, idx)


def all_trig_identity_residuals(k: int) -> list[tuple[str, object, float]]:
    """Every identity instance for this k as (kind, index, residual).

    All sums come from one node-cosine table; each product-sum is computed
    for i < j and reused for (j, i), as the product is commutative in
    floating point.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    table = _node_cosines(k)
    out = [("node-sum", l, _identity_residual(table, "node-sum", l)) for l in range(1, k)]
    out += [("frequency-sum", j, _identity_residual(table, "frequency-sum", j))
            for j in range(1, 2 * k - 1)]
    products = {(i, j): _identity_residual(table, "product-sum", (i, j))
                for i in range(k) for j in range(i + 1, k)}
    out += [("product-sum", (i, j), products[min(i, j), max(i, j)])
            for i in range(k) for j in range(k) if i != j]
    return out


def bisect_roots(fn, lo: float, hi: float) -> list[float]:
    """All simple roots of ``fn`` on [lo, hi] by grid scan plus bisection.

    ``fn`` must accept a numpy array of angles.  The scan uses 10 001
    equispaced grid points; each sign change across a grid cell is refined
    by bisection to width below 1e-12, and a root that falls exactly on a
    grid node (value 0.0, killing the sign-product test on both adjacent
    cells) is taken as-is.  Roots at tangencies (no sign change) are not
    found, which is the point — this serves as the independent
    multiplicity-one oracle for the closed-form root lists.
    """
    grid = np.linspace(lo, hi, 10_001)
    vals = np.asarray(fn(grid), dtype=float)
    exact = grid[vals == 0.0]
    sign_change = vals[:-1] * vals[1:] < 0.0
    a = grid[:-1][sign_change].copy()
    b = grid[1:][sign_change].copy()
    fa = vals[:-1][sign_change].copy()
    while np.any(b - a > 1e-12):
        mid = 0.5 * (a + b)
        fm = np.asarray(fn(mid), dtype=float)
        go_left = fa * fm < 0.0
        b = np.where(go_left, mid, b)
        fa_new = np.where(go_left, fa, fm)
        a = np.where(go_left, a, mid)
        fa = fa_new
    return sorted(np.concatenate([exact, 0.5 * (a + b)]).tolist())
