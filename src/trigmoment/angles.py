"""Exact angle arithmetic and evaluation of trigonometric moment curves.

Angles are either exact rational multiples of pi (kept as a reduced integer
fraction so that node angles like 2*pi/5 never drift) or plain floating-point
radians.  Cosines and sines of rational angles are computed after exact
integer argument reduction and quadrant folding, which makes values such as
cos(3*pi/2) = 0 exact and guarantees bit-for-bit reproducibility under adding
full turns.

The module also evaluates the two curves everything else is built on:

* the cosine moment curve  C_k(theta)  = (cos(theta), cos(3*theta), ...,
  cos((2k-1)*theta)) in R^k, and
* the symmetric moment curve SM_{2k}(theta) = (cos(theta), ...,
  cos((2k-1)*theta), sin(theta), ..., sin((2k-1)*theta)) in R^{2k},

together with the derivative of C_k and Chebyshev polynomials of the first
kind as an independent cross-check path (cos(d*theta) = T_d(cos(theta))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "Angle",
    "rational_angle",
    "real_angle",
    "as_angle",
    "arc_distance",
    "cos_at",
    "sin_at",
    "chebyshev_T",
    "cosine_curve",
    "cosine_curve_deriv",
    "symmetric_curve",
    "cosine_curve_samples",
    "symmetric_curve_samples",
]


@dataclass(frozen=True)
class Angle:
    """An angle in [0, 2*pi), exact rational multiple of pi or free-valued.

    Rational angles satisfy ``theta = p*pi/q`` with ``gcd(p, q) == 1`` and
    ``0 <= p < 2q``; ``p is None`` marks a free-valued (float) angle.  The
    float ``value`` is always populated for numeric use.  Equality is exact:
    two rational angles compare by (p, q), any other pair by ``value``.
    """

    p: int | None
    q: int | None
    value: float

    @property
    def is_rational(self) -> bool:
        return self.p is not None

    def __neg__(self) -> "Angle":
        if self.is_rational:
            return rational_angle(-self.p, self.q)
        return real_angle(-self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        if self.is_rational and other.is_rational:
            return self.p == other.p and self.q == other.q
        return self.value == other.value

    def __hash__(self) -> int:
        # Equal angles have equal values, rational pairs included.
        return hash(self.value)

    def __str__(self) -> str:
        """Exact text for rational angles (``0``, ``pi``, ``pi/q``, ``p*pi``,
        ``p*pi/q``), ``repr(value)`` otherwise."""
        if not self.is_rational:
            return repr(self.value)
        if self.p == 0:
            return "0"
        num = "pi" if self.p == 1 else f"{self.p}*pi"
        return num if self.q == 1 else f"{num}/{self.q}"

    def __repr__(self) -> str:
        return f"Angle({self})"


def rational_angle(p: int, q: int) -> Angle:
    """Exact angle p*pi/q, reduced mod 2*pi and to lowest terms."""
    if q <= 0:
        raise ValueError(f"denominator must be positive, got q={q}")
    p = p % (2 * q)
    g = gcd(p, q) if p else q
    p, q = p // g, q // g
    return Angle(p, q, math.pi * p / q)


def real_angle(x: float) -> Angle:
    """Free-valued angle, canonicalized into [0, 2*pi)."""
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x}")
    v = math.fmod(x, TWO_PI) + 0.0  # adding +0.0 turns -0.0 into 0.0
    if v < 0.0:
        v += TWO_PI
    return Angle(None, None, v)


def as_angle(theta: "Angle | float | int") -> Angle:
    """Coerce a float (radians) to an Angle; pass Angles through."""
    if isinstance(theta, Angle):
        return theta
    return real_angle(float(theta))


def arc_distance(a, b):
    """Length of the shorter arc between angles ``a`` and ``b`` (radians),
    in [0, pi]: fmod(|a - b|, 2*pi) folded.  Accepts floats or arrays."""
    d = np.fmod(np.abs(np.subtract(a, b)), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def _cos_pi_frac(m: int, q: int) -> float:
    """cos(m*pi/q) for integers 0 <= m < 2q via exact quadrant folding.

    Folds the argument into [0, pi/2] using cos(2*pi - x) = cos(x) and
    cos(pi - x) = -cos(x), so symmetric node values cancel exactly and
    quarter-turn multiples give exact zeros.
    """
    if m > q:  # cos(2*pi - x) = cos(x)
        m = 2 * q - m
    sign = 1.0
    if 2 * m > q:  # cos(pi - x) = -cos(x)
        m = q - m
        sign = -1.0
    if 2 * m == q:
        return 0.0
    return sign * math.cos(math.pi * m / q)


def cos_at(d: int, theta: "Angle | float") -> float:
    """cos(d*theta) with the argument reduced exactly before evaluation.

    For rational angles the product d*p is reduced mod 2q in integer
    arithmetic, so large multiples lose no accuracy; for free-valued angles
    the product is reduced modulo 2*pi in floating point.
    """
    a = as_angle(theta)
    if a.is_rational:
        return _cos_pi_frac((d * a.p) % (2 * a.q), a.q)
    return math.cos(math.fmod(d * a.value, TWO_PI))


def sin_at(d: int, theta: "Angle | float") -> float:
    """sin(d*theta) via the exact shift sin(x) = cos(x - pi/2)."""
    a = as_angle(theta)
    if a.is_rational:
        # sin(m*pi/q) = cos((2m - q) * pi / (2q))
        m = (d * a.p) % (2 * a.q)
        return _cos_pi_frac((2 * m - a.q) % (4 * a.q), 2 * a.q)
    return math.sin(math.fmod(d * a.value, TWO_PI))


def chebyshev_T(d: int, x):
    """Chebyshev polynomial T_d(x) by the three-term recurrence.

    Accepts scalars or numpy arrays with |x| <= 1 + 1e-9.  This is the
    independent cross-check path for cos(d*theta) = T_d(cos(theta)); direct
    cosine evaluation with exact reduction remains the primary path.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + 1e-9):
        raise ValueError("chebyshev_T expects |x| <= 1 + 1e-9")
    ones = np.ones_like(xa)
    if d == 0:
        return ones if isinstance(x, np.ndarray) else 1.0
    t_prev, t_cur = ones, xa
    for _ in range(d - 1):
        t_prev, t_cur = t_cur, 2.0 * xa * t_cur - t_prev
    return t_cur if isinstance(x, np.ndarray) else float(t_cur)


def cosine_curve(k: int, theta: "Angle | float") -> np.ndarray:
    """C_k(theta) = (cos(theta), cos(3*theta), ..., cos((2k-1)*theta))."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a = as_angle(theta)
    return np.array([cos_at(2 * l - 1, a) for l in range(1, k + 1)])


def cosine_curve_deriv(k: int, theta: "Angle | float") -> np.ndarray:
    """Derivative of C_k: component l is -(2l-1)*sin((2l-1)*theta)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a = as_angle(theta)
    return np.array(
        [-(2 * l - 1) * sin_at(2 * l - 1, a) for l in range(1, k + 1)]
    )


def symmetric_curve(k: int, theta: "Angle | float") -> np.ndarray:
    """SM_{2k}(theta): k cosine coordinates followed by k sine coordinates.

    Satisfies the midpoint identity
    (1/2)*SM(-theta) + (1/2)*SM(theta) = (C_k(theta), 0, ..., 0).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a = as_angle(theta)
    cos_part = [cos_at(2 * l - 1, a) for l in range(1, k + 1)]
    sin_part = [sin_at(2 * l - 1, a) for l in range(1, k + 1)]
    return np.array(cos_part + sin_part)


def cosine_curve_samples(k: int, thetas: np.ndarray) -> np.ndarray:
    """Rows of C_k at each angle in ``thetas`` (floats), shape (n, k)."""
    thetas = np.asarray(thetas, dtype=float)
    freqs = 2.0 * np.arange(1, k + 1) - 1.0
    return np.cos(np.outer(thetas, freqs))


def symmetric_curve_samples(k: int, thetas: np.ndarray) -> np.ndarray:
    """Rows of SM_{2k} at each angle in ``thetas`` (floats), shape (n, 2k)."""
    thetas = np.asarray(thetas, dtype=float)
    freqs = 2.0 * np.arange(1, k + 1) - 1.0
    args = np.outer(thetas, freqs)
    return np.hstack([np.cos(args), np.sin(args)])
