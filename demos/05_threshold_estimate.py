"""Recovering the critical arc length empirically.

The estimator watches where the chord midpoint (C_k(t), 0) crosses from
the boundary of the sampled hull into its interior, bisecting on t.  The
closed form 2*pi*(k-1)/(2k-1) seeds the first bracket (arcs psi_k +- 0.3)
and is the yardstick afterwards; the verdicts inside the bracket come from
LP probes alone.
"""

import time

from trigmoment.edges import edge_threshold, estimate_threshold


def main():
    print("bisection on the midpoint-interiority transition")
    print("------------------------------------------------")
    print(f"{'k':>3} {'psi_hat':>12} {'closed form':>12} {'error':>10} "
          f"{'bracket width':>14} {'seconds':>8}")
    for k, samples in ((2, 4000), (3, 4000), (4, 5000)):
        started = time.perf_counter()
        est = estimate_threshold(k, num_samples=samples, resolution=1e-3)
        elapsed = time.perf_counter() - started
        lo, hi = est.bracket
        closed = edge_threshold(k)
        print(f"{k:>3} {est.psi_hat:>12.6f} {closed:>12.6f} "
              f"{est.psi_hat - closed:>+10.2e} {hi - lo:>14.2e} {elapsed:>8.2f}")
    print()
    print("the estimate lands within 5e-3 of the closed form.  The small")
    print("positive bias has two causes: midpoints just inside the hull look")
    print("boundary-like until their clearance exceeds the probe displacement")
    print("delta (at k = 2 the bias is the same at 4000 and 16000 samples and")
    print("ten times smaller at delta = 1e-7), and the sampled hull lies inside")
    print("the body (at k = 4 more samples narrow it too).")


if __name__ == "__main__":
    main()
