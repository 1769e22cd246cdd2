"""The edge dichotomy: chords flip from edge to non-edge at one arc length.

A chord [SM(a), SM(b)] is an exposed edge exactly when the arc between a
and b is shorter than psi_k = 2*pi*(k-1)/(2k-1).  The verdict function
refuses to answer from the formula alone: below the threshold it must find
a supporting functional (LP certificate), above it an interior-midpoint
witness, and within 0.02 radians of the threshold it abstains.
"""

from trigmoment.edges import edge_threshold, edge_verdict, facet_contact_check


def describe(verdict):
    if verdict.verdict == "edge":
        return f"edge        (certificate margin {verdict.certificate.margin:.2e})"
    if verdict.verdict == "not_edge":
        return f"not_edge    (midpoint {verdict.midpoint_witness.verdict})"
    return "near_threshold (abstains: too close to call numerically)"


def main():
    print("arc length sweep at k=2  (threshold 2*pi/3 = 2.0944)")
    print("----------------------------------------------------")
    psi = edge_threshold(2)
    for arc in (0.5, 1.5, psi - 0.1, psi - 0.005, psi + 0.005, psi + 0.1, 3.0):
        verdict = edge_verdict(2, 0.0, arc, num_samples=1500)
        print(f"  arc {arc:6.4f}: {describe(verdict)}")
    print()

    print("rotation equivariance: only the arc matters")
    print("-------------------------------------------")
    for tau in (0.0, 1.7, 4.1):
        below = edge_verdict(2, tau, tau + psi - 0.1, num_samples=1500)
        above = edge_verdict(2, tau, tau + psi + 0.1, num_samples=1500)
        print(f"  start {tau:.1f}: below -> {below.verdict}, above -> {above.verdict}")
    print()

    print("thresholds grow toward pi as k grows")
    print("------------------------------------")
    for k in range(2, 7):
        print(f"  psi_{k} = {edge_threshold(k):.7f}"
              f"   (2*pi*{k - 1}/{2 * k - 1})")
    print()

    print("facet-contact check: the curve meets the distinguished facet")
    print("-------------------------------------------------------------")
    for k in (3, 4, 5):
        report = facet_contact_check(k)
        print(f"  k={k}: contact at {report.contact_angle!r}, "
              f"hyperplane residual {report.hyperplane_residual:.1e}, "
              f"tangent step {report.tangent_step:.3f}, "
              f"signs ok: {report.sign_pattern_ok}")


if __name__ == "__main__":
    main()
