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
from dataclasses import dataclass

import numpy as np

from trigmoment.angles import (
    Angle,
    as_angle,
    cos_at,
    cosine_curve,
    cosine_curve_samples,
    rational_angle,
)

# Tolerance ladder, single source of truth for the geometric checks.
ZERO_TOL = 1e-10   # structural zeros (vanishing pattern, root residuals)
RECON_TOL = 1e-12  # convex-combination reconstructions
DERIV_TOL = 1e-8   # derivative nonvanishing (multiplicity-one roots)

__all__ = [
    "ZERO_TOL",
    "RECON_TOL",
    "DERIV_TOL",
    "AffineFunctional",
    "ConvexCombination",
    "SimplexSpec",
    "FacetReport",
    "facet_nodes",
    "facet_functional",
    "facet_curve_poly",
    "facet_curve_poly_grid",
    "facet_curve_roots",
    "facet_curve_sign",
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
    """A simplex with k curve-point vertices in R^{k-1}.

    ``which`` is "outer" (distinguished vertex at angle 0) or "inner"
    (distinguished vertex at angle pi/2); only the inner simplex carries its
    facet description.
    """

    k: int
    which: str
    vertices: np.ndarray  # (k, k-1)
    vertex_angles: tuple
    facets: tuple | None = None


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
    return fn(cosine_curve(k - 1, theta).coords)


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


def facet_curve_sign(k: int, j: int, theta: "Angle | float") -> int:
    """Sign of f_j(theta) with a dead zone: |f| < 1e-12 maps to 0."""
    v = facet_curve_poly(k, j, theta)
    if abs(v) < 1e-12:
        return 0
    return 1 if v > 0.0 else -1


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
    vertices = np.array([cosine_curve(k - 1, a).coords for a in angles])
    return SimplexSpec(k, "outer", vertices, tuple(angles))


def inner_simplex(k: int) -> SimplexSpec:
    """Simplex spanned by C_{k-1} at all k nodes, with facet functionals."""
    angles = facet_nodes(k)
    vertices = np.array([cosine_curve(k - 1, a).coords for a in angles])
    facets = tuple(facet_functional(k, j) for j in range(k))
    return SimplexSpec(k, "inner", vertices, tuple(angles), facets)


# The three node-angle cosine identities; every sum below equals -1/2.
_IDENTITY_KINDS = ("node-sum", "frequency-sum", "product-sum")


def trig_identity_residual(which: str, k: int, idx) -> float:
    """|sum - (-1/2)| for one instance of a node-angle cosine identity.

    which = "node-sum":      sum_{j=1}^{k-1} cos((2l-1) * 2j*pi/(2k-1)),
                             idx = l in 1..k-1;
    which = "frequency-sum": sum_{l=1}^{k-1} cos((2l-1) * 2j*pi/(2k-1)),
                             idx = j in 1..2k-2;
    which = "product-sum":   sum_{l=1}^{k-1} cos((2l-1) * 2i*pi/(2k-1))
                                           * cos((2l-1) * 2j*pi/(2k-1)),
                             idx = (i, j) with i != j in 0..k-1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = 2 * k - 1
    if which == "node-sum":
        l = idx
        if not 1 <= l <= k - 1:
            raise ValueError(f"node-sum index must be in 1..{k - 1}, got {l}")
        s = sum(cos_at(2 * l - 1, rational_angle(2 * j, n)) for j in range(1, k))
    elif which == "frequency-sum":
        j = idx
        if not 1 <= j <= 2 * k - 2:
            raise ValueError(f"frequency-sum index must be in 1..{2 * k - 2}, got {j}")
        node = rational_angle(2 * j, n)
        s = sum(cos_at(2 * l - 1, node) for l in range(1, k))
    elif which == "product-sum":
        i, j = idx
        if i == j or not (0 <= i <= k - 1 and 0 <= j <= k - 1):
            raise ValueError(f"product-sum needs i != j in 0..{k - 1}, got {idx}")
        ai, aj = rational_angle(2 * i, n), rational_angle(2 * j, n)
        s = sum(
            cos_at(2 * l - 1, ai) * cos_at(2 * l - 1, aj) for l in range(1, k)
        )
    else:
        raise ValueError(f"unknown identity kind {which!r}; choose from {_IDENTITY_KINDS}")
    return abs(s - (-0.5))


def all_trig_identity_residuals(k: int) -> list[tuple[str, object, float]]:
    """Every identity instance for this k as (kind, index, residual)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    out = []
    for l in range(1, k):
        out.append(("node-sum", l, trig_identity_residual("node-sum", k, l)))
    for j in range(1, 2 * k - 1):
        out.append(("frequency-sum", j, trig_identity_residual("frequency-sum", k, j)))
    for i in range(k):
        for j in range(k):
            if i != j:
                out.append(
                    ("product-sum", (i, j), trig_identity_residual("product-sum", k, (i, j)))
                )
    return out


def bisect_roots(fn, lo: float, hi: float, n_grid: int = 10_000, xtol: float = 1e-12) -> list[float]:
    """All simple roots of ``fn`` on [lo, hi] by grid scan plus bisection.

    ``fn`` must accept a numpy array of angles.  Each sign change across a
    grid cell is refined by bisection to width below ``xtol``; a root that
    falls exactly on a grid node (value 0.0, killing the sign-product test
    on both adjacent cells) is taken as-is.  Roots at tangencies (no sign
    change) are not found, which is the point — this serves as the
    independent multiplicity-one oracle for the closed-form root lists.
    """
    grid = np.linspace(lo, hi, n_grid + 1)
    vals = np.asarray(fn(grid), dtype=float)
    exact = grid[vals == 0.0]
    sign_change = vals[:-1] * vals[1:] < 0.0
    a = grid[:-1][sign_change].copy()
    b = grid[1:][sign_change].copy()
    fa = vals[:-1][sign_change].copy()
    while np.any(b - a > xtol):
        mid = 0.5 * (a + b)
        fm = np.asarray(fn(mid), dtype=float)
        go_left = fa * fm < 0.0
        b = np.where(go_left, mid, b)
        fa_new = np.where(go_left, fa, fm)
        a = np.where(go_left, a, mid)
        fa = fa_new
    return sorted(np.concatenate([exact, 0.5 * (a + b)]).tolist())
