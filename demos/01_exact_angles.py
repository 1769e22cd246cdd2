"""Exact rational-angle trigonometry and the two moment curves.

The package keeps angles as reduced fractions of pi whenever it can, so
trigonometric values that the geometry needs to be *exactly* zero or one
come out exactly — no 1e-16 dust at the node angles everything hinges on.
"""

import math

import numpy as np

from trigmoment.angles import (
    chebyshev_T,
    cos_at,
    cosine_curve,
    rational_angle,
    symmetric_curve,
)


def main():
    print("exact evaluation at rational angles")
    print("-----------------------------------")
    t = rational_angle(3, 2)  # 3*pi/2
    print(f"cos(3*pi/2)           = {cos_at(1, t)!r}   (exactly 0.0)")
    print(f"math.cos would give     {math.cos(t.value)!r}")
    t0 = rational_angle(4, 7)  # the k=4 facet-contact angle
    print(f"cos(7 * 4*pi/7)       = {cos_at(7, t0)!r}   (exactly 1.0: 7*4/7 = 4 is even)")
    print()

    print("the symmetric curve and its cosine projection")
    print("---------------------------------------------")
    k, theta = 3, 0.8
    sm_plus = symmetric_curve(k, theta)
    sm_minus = symmetric_curve(k, -theta)
    midpoint = 0.5 * (sm_plus + sm_minus)
    cosine = cosine_curve(k, theta)
    print(f"SM_6(+0.8)  = {np.round(sm_plus, 6)}")
    print(f"SM_6(-0.8)  = {np.round(sm_minus, 6)}")
    print(f"midpoint    = {np.round(midpoint, 6)}")
    print(f"(C_3, 0)    = {np.round(np.concatenate([cosine, np.zeros(k)]), 6)}")
    gap = np.max(np.abs(midpoint - np.concatenate([cosine, np.zeros(k)])))
    print(f"midpoint identity residual: {gap:.3e}")
    print()

    print("Chebyshev cross-check: cos(d*t) = T_d(cos t)")
    print("--------------------------------------------")
    worst = 0.0
    for d in (1, 3, 5, 7):
        for theta in np.linspace(0.1, 3.0, 7):
            direct = math.cos(d * theta)
            via_T = chebyshev_T(d, math.cos(theta))
            worst = max(worst, abs(direct - via_T))
    print(f"max |cos(d t) - T_d(cos t)| over d in {{1,3,5,7}}: {worst:.3e}")


if __name__ == "__main__":
    main()
