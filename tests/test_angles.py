"""Tests for exact angle arithmetic and curve evaluation.

Expected values are frozen from independent closed forms (golden-ratio
cosines, quarter-turn exactness) before being compared against the module.
"""

import math

import numpy as np
import pytest

from trigmoment.angles import (
    TWO_PI,
    Angle,
    arc_distance,
    as_angle,
    chebyshev_T,
    cos_at,
    cosine_curve,
    cosine_curve_deriv,
    cosine_curve_samples,
    rational_angle,
    real_angle,
    sin_at,
    symmetric_curve,
    symmetric_curve_samples,
)

# Independent closed forms for the pentagon angles.
COS_72 = (math.sqrt(5.0) - 1.0) / 4.0     # cos(2*pi/5)
COS_144 = -(math.sqrt(5.0) + 1.0) / 4.0   # cos(4*pi/5)
COS_36 = (math.sqrt(5.0) + 1.0) / 4.0     # cos(pi/5)


class TestAngleConstruction:
    def test_canonical_rational(self):
        a = rational_angle(1, 2)
        assert (a.p, a.q) == (1, 2)
        assert a.value == math.pi / 2

    def test_modular_reduction(self):
        # 5*pi/2 == pi/2 mod 2*pi
        assert rational_angle(5, 2) == rational_angle(1, 2)
        assert rational_angle(5, 2).p == 1

    def test_gcd_reduction(self):
        a = rational_angle(4, 10)
        assert (a.p, a.q) == (2, 5)

    def test_negative_numerator_wraps(self):
        a = rational_angle(-1, 2)  # -pi/2 == 3*pi/2
        assert (a.p, a.q) == (3, 2)

    def test_zero_angle(self):
        a = rational_angle(0, 7)
        assert (a.p, a.q) == (0, 1)
        assert a.value == 0.0

    def test_bad_denominator_rejected(self):
        with pytest.raises(ValueError):
            rational_angle(1, 0)

    def test_real_canonicalized(self):
        a = real_angle(-1.0)
        assert 0.0 <= a.value < 2.0 * math.pi
        assert abs(a.value - (2.0 * math.pi - 1.0)) < 1e-15

    def test_negative_zero_is_canonical(self):
        for a in (real_angle(-0.0), -real_angle(0.0), real_angle(0.0)):
            assert a.value == 0.0
            assert math.copysign(1.0, a.value) == 1.0
            assert str(a) == "0.0"

    def test_tiny_negative_is_not_a_full_turn(self):
        # fmod(x, 2*pi) + 2*pi rounds up to exactly 2*pi for tiny negative x.
        for a in (real_angle(-1e-20), -real_angle(1e-20)):
            assert a.value < TWO_PI
            assert a == real_angle(0.0)

    def test_real_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            real_angle(math.inf)

    def test_negation_rational(self):
        a = rational_angle(2, 5)
        assert -a == rational_angle(8, 5)

    def test_equality_real_tolerance(self):
        # No tolerance: equality is exact, so equal angles hash alike.
        assert real_angle(1.0) == real_angle(1.0)
        assert real_angle(1.0) != real_angle(1.0 + 1e-13)
        assert rational_angle(1, 2) == real_angle(math.pi / 2)
        assert rational_angle(1, 2) != real_angle(math.pi / 2 + 1e-13)
        assert len({rational_angle(1, 2), real_angle(math.pi / 2)}) == 1
        assert len({real_angle(1.0), real_angle(1.0 + 1e-13)}) == 2

    def test_str_and_repr(self):
        for (p, q), text in (((0, 1), "0"), ((1, 1), "pi"), ((1, 3), "pi/3"),
                             ((3, 2), "3*pi/2"), ((-1, 1), "pi")):
            a = rational_angle(p, q)
            assert str(a) == text
            assert repr(a) == f"Angle({text})"
        a = real_angle(1.25)
        assert str(a) == "1.25"
        assert repr(a) == "Angle(1.25)"

    def test_as_angle_coercion(self):
        a = as_angle(math.pi / 2)
        assert isinstance(a, Angle)
        assert not a.is_rational


class TestArcDistance:
    def test_scalar_values(self):
        assert arc_distance(0.5, 2.0) == 1.5
        assert arc_distance(2.0, 0.5) == 1.5
        assert arc_distance(0.0, math.pi) == math.pi
        assert abs(arc_distance(0.1, 2.0 * math.pi - 0.1) - 0.2) < 1e-15
        assert abs(arc_distance(-0.1, 4.0 * math.pi + 0.1) - 0.2) < 1e-14

    def test_array_matches_scalar_and_stays_in_range(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-20.0, 20.0, 500)
        got = arc_distance(a, 1.3)
        assert got.shape == a.shape
        assert np.all((got >= 0.0) & (got <= math.pi))
        assert np.array_equal(got, [arc_distance(x, 1.3) for x in a])
        # The folded distance agrees with the angle between unit vectors.
        assert np.allclose(np.cos(got), np.cos(a - 1.3), atol=1e-12)


class TestCosAt:
    def test_exact_zero_at_three_half_pi(self):
        assert cos_at(3, rational_angle(1, 2)) == 0.0

    def test_pentagon_value(self):
        got = cos_at(1, rational_angle(2, 5))
        assert abs(got - COS_72) < 1e-15

    def test_full_turn_is_one(self):
        assert cos_at(5, rational_angle(2, 5)) == 1.0

    def test_invariant_under_full_turns(self):
        # p -> p + 2q is the identity on angles; values must agree bitwise.
        a, b = rational_angle(3, 7), rational_angle(17, 7)
        for d in range(1, 40):
            assert cos_at(d, a) == cos_at(d, b)

    def test_mirror_symmetry_exact(self):
        # cos(pi - x) = -cos(x) holds exactly under quadrant folding.
        for q in (5, 7, 9, 12):
            for p in range(1, q):
                a = rational_angle(p, q)
                m = rational_angle(q - p, q)
                assert cos_at(1, a) == -cos_at(1, m)

    def test_real_angle_path(self):
        assert abs(cos_at(3, 0.7) - math.cos(2.1)) < 1e-15

    def test_matches_library_cosine(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(0, 200))
            q = int(rng.integers(1, 60))
            d = int(rng.integers(0, 30))
            a = rational_angle(p, q)
            exact = cos_at(d, a)
            naive = math.cos(d * math.pi * p / q)
            assert abs(exact - naive) < 1e-9


class TestSinAt:
    def test_exact_values_at_quarter_turns(self):
        half_pi = rational_angle(1, 2)
        assert sin_at(1, half_pi) == 1.0
        assert sin_at(3, half_pi) == -1.0
        assert sin_at(2, half_pi) == 0.0  # sin(pi)

    def test_sin_zero_at_zero_and_pi(self):
        assert sin_at(1, rational_angle(0, 1)) == 0.0
        assert sin_at(1, rational_angle(1, 1)) == 0.0

    def test_matches_library_sine(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(0, 100))
            q = int(rng.integers(1, 50))
            d = int(rng.integers(0, 25))
            a = rational_angle(p, q)
            assert abs(sin_at(d, a) - math.sin(d * math.pi * p / q)) < 1e-9

    def test_antisymmetry(self):
        a = rational_angle(2, 5)
        assert sin_at(1, -a) == -sin_at(1, a)


class TestChebyshev:
    def test_degree_zero(self):
        assert chebyshev_T(0, 0.3) == 1.0

    def test_degree_two(self):
        assert abs(chebyshev_T(2, 0.5) - (-0.5)) < 1e-15

    def test_composition_with_cosine(self):
        # T_7(cos(2*pi/5)) = cos(14*pi/5) = cos(4*pi/5)
        got = chebyshev_T(7, cos_at(1, rational_angle(2, 5)))
        assert abs(got - COS_144) < 1e-12

    def test_identity_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            d = int(rng.integers(0, 101))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            assert abs(chebyshev_T(d, math.cos(theta)) - cos_at(d, theta)) < 1e-10

    def test_array_input(self):
        x = np.linspace(-1.0, 1.0, 11)
        got = chebyshev_T(3, x)
        expect = 4.0 * x**3 - 3.0 * x
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_T(3, 1.5)
        with pytest.raises(ValueError):
            chebyshev_T(-1, 0.5)


class TestCosineCurve:
    def test_vanishes_at_half_pi(self):
        pt = cosine_curve(2, rational_angle(1, 2))
        assert np.all(pt == 0.0)

    def test_all_ones_at_zero(self):
        pt = cosine_curve(3, rational_angle(0, 1))
        assert np.all(pt == 1.0)

    def test_pentagon_point(self):
        pt = cosine_curve(2, rational_angle(2, 5))
        assert abs(pt[0] - COS_72) < 1e-15
        # cos(6*pi/5) = cos(4*pi/5 + 2*pi/5)... = -cos(pi/5)
        assert abs(pt[1] - (-COS_36)) < 1e-15

    def test_sup_norm_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 12))
            theta = float(rng.uniform(0.0, 2 * math.pi))
            assert np.max(np.abs(cosine_curve(k, theta))) <= 1.0

    def test_bad_k(self):
        with pytest.raises(ValueError):
            cosine_curve(0, 1.0)


class TestDerivative:
    def test_zero_at_origin(self):
        assert np.all(cosine_curve_deriv(2, rational_angle(0, 1)) == 0.0)

    def test_exact_at_half_pi(self):
        d = cosine_curve_deriv(2, rational_angle(1, 2))
        assert d[0] == -1.0 and d[1] == 3.0

    def test_central_difference(self):
        # |FD - analytic| < 10 * h^2 * (2k-1)^3 for h in {1e-3, 1e-4}
        for k in (2, 3, 5, 8):
            theta = 2.0 * math.pi / 5.0
            analytic = cosine_curve_deriv(k, theta)
            for h in (1e-3, 1e-4):
                fd = (
                    cosine_curve(k, theta + h)
                    - cosine_curve(k, theta - h)
                ) / (2.0 * h)
                bound = 10.0 * h * h * (2 * k - 1) ** 3
                assert np.max(np.abs(fd - analytic)) < bound


class TestSymmetricCurve:
    def test_at_zero(self):
        pt = symmetric_curve(2, rational_angle(0, 1))
        assert np.array_equal(pt, [1.0, 1.0, 0.0, 0.0])

    def test_at_half_pi(self):
        pt = symmetric_curve(2, rational_angle(1, 2))
        assert np.array_equal(pt, [0.0, 0.0, 1.0, -1.0])

    def test_midpoint_identity(self):
        # (1/2)SM(-t) + (1/2)SM(t) = (C_k(t), 0) to 1e-14, k <= 20
        rng = np.random.default_rng(9)
        for k in range(2, 21):
            theta = float(rng.uniform(0.0, 2 * math.pi))
            a = real_angle(theta)
            mid = 0.5 * symmetric_curve(k, -a) + 0.5 * symmetric_curve(k, a)
            expect = np.concatenate([cosine_curve(k, a), np.zeros(k)])
            assert np.max(np.abs(mid - expect)) < 1e-14

    def test_midpoint_identity_rational(self):
        for k in (2, 3, 4):
            a = rational_angle(2, 7)
            mid = 0.5 * symmetric_curve(k, -a) + 0.5 * symmetric_curve(k, a)
            assert np.max(np.abs(mid[k:])) == 0.0  # sines cancel exactly

    def test_central_symmetry(self):
        # SM(theta + pi) = -SM(theta)
        for k in (2, 3):
            a = rational_angle(1, 5)
            b = rational_angle(6, 5)
            assert np.max(np.abs(symmetric_curve(k, a) + symmetric_curve(k, b))) < 1e-15


class TestVectorizedSamples:
    def test_cosine_grid_matches_scalar(self):
        thetas = np.linspace(0.0, math.pi, 13)
        grid = cosine_curve_samples(3, thetas)
        for i, t in enumerate(thetas):
            assert np.max(np.abs(grid[i] - cosine_curve(3, float(t)))) < 1e-12

    def test_symmetric_grid_matches_scalar(self):
        thetas = np.linspace(0.0, 2 * math.pi, 9)
        grid = symmetric_curve_samples(2, thetas)
        for i, t in enumerate(thetas):
            assert np.max(np.abs(grid[i] - symmetric_curve(2, float(t)))) < 1e-12
