"""Command-line interface exposing every check as a subcommand.

Each subcommand prints a deterministic key/value report to standard output
(identical inputs produce identical reports, apart from the trailing
wall-time line) and exits 0 when every internal tolerance check passed,
1 when a check failed or the evidence was contradictory, 2 on unusable
input.  ``plot-data`` additionally writes CSV files (comma-separated,
header row, 17 significant digits) for external plotting tools.

Angles are accepted either as decimal radians or in the exact literal form
``p*pi/q`` (also ``pi``, ``pi/q``, ``p*pi``), which is parsed into an exact
rational multiple of pi so node angles survive parsing without rounding.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time

import numpy as np

from .angles import (
    Angle,
    cosine_curve_samples,
    rational_angle,
    symmetric_curve,
)
from .edges import (
    EvidenceContradictionError,
    edge_threshold,
    edge_verdict,
    estimate_threshold,
    facet_contact_check,
    midpoint_interiority,
)
from .facets import (
    RECON_TOL,
    ZERO_TOL,
    all_trig_identity_residuals,
    bisect_roots,
    facet_curve_poly_grid,
    facet_curve_roots,
    inner_simplex,
    origin_witness,
    outer_simplex,
    verify_facet_description,
)
from .hull import in_hull
from .toeplitz import toeplitz_membership

PLOT_KINDS = ("curve", "f-graphs", "facet-projection", "threshold-sweep")

_PI_FORM = re.compile(
    r"^\s*(?:([+-]?\d+)\s*\*\s*)?pi\s*(?:/\s*(\d+))?\s*$", re.IGNORECASE
)


def _g(x: float) -> str:
    """Decimal with 17 significant digits (round-trips a float exactly)."""
    return "%.17g" % float(x)


def parse_angle(text: str) -> "Angle | float":
    """Parse a CLI angle: 'p*pi/q' exactly, otherwise decimal radians."""
    m = _PI_FORM.match(text)
    if m:
        p = int(m.group(1)) if m.group(1) else 1
        q = int(m.group(2)) if m.group(2) else 1
        return rational_angle(p, q)
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}; use decimal radians or 'p*pi/q'"
        )


def parse_point(text: str) -> np.ndarray:
    """Parse a comma-separated coordinate vector."""
    try:
        return np.array([float(s) for s in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse point {text!r}; use comma-separated decimals"
        )


def cmd_identities(k: int, tol: float) -> tuple[list, bool]:
    """Residuals of the three node-angle cosine identities, all indices."""
    residuals = all_trig_identity_residuals(k)
    lines = [("k", str(k)), ("tolerance", _g(tol))]
    worst = 0.0
    for which, idx, res in residuals:
        lines.append((f"identity {which} {idx}", _g(res)))
        worst = max(worst, res)
    lines.append(("instances", str(len(residuals))))
    lines.append(("max_residual", _g(worst)))
    return lines, worst <= tol


def cmd_facets(k: int, tol: float) -> tuple[list, bool]:
    """Vanishing pattern of the facet functions at the node angles."""
    report = verify_facet_description(k, tol)
    lines = [("k", str(k)), ("tolerance", _g(tol))]
    for j, i, value, ok in report.entries:
        lines.append((f"f_{j}(theta_{i})", f"{_g(value)} ({'ok' if ok else 'BAD'})"))
    lines.append(("max_offdiagonal", _g(report.max_offdiagonal)))
    lines.append(("min_diagonal", _g(report.min_diagonal)))
    return lines, report.passed


def cmd_roots(k: int, tol: float) -> tuple[list, bool]:
    """Closed-form root lists of each facet function, cross-checked by bisection."""
    if k < 2:  # for k <= 0 the loop below would call no library function
        raise ValueError(f"k must be >= 2, got {k}")
    lines = [("k", str(k)), ("tolerance", _g(tol))]
    passed = True
    worst = 0.0
    for j in range(k):
        exact = facet_curve_roots(k, j)
        lines.append((f"roots j={j}", ", ".join(map(str, exact))))
        found = bisect_roots(lambda t, j=j: facet_curve_poly_grid(k, j, t),
                             0.0, math.pi)
        if len(found) != len(exact):
            lines.append((f"bisection j={j}", f"found {len(found)} roots, "
                          f"expected {len(exact)}"))
            passed = False
            continue
        dev = max(
            abs(a.value - b) for a, b in zip(sorted(exact, key=lambda a: a.value),
                                             sorted(found))
        )
        lines.append((f"bisection_deviation j={j}", _g(dev)))
        worst = max(worst, dev)
        if dev > tol:
            passed = False
    lines.append(("max_deviation", _g(worst)))
    return lines, passed


def cmd_witness(k: int, tol: float) -> tuple[list, bool]:
    """Explicit convex weights writing the origin from outer-simplex vertices."""
    witness = origin_witness(k)
    error = witness.reconstruction_error(np.zeros(k - 1))
    verdict = in_hull(np.zeros(k - 1), witness.points)
    lines = [
        ("k", str(k)),
        ("tolerance", _g(tol)),
        ("weights", ", ".join(_g(w) for w in witness.weights)),
        ("reconstruction_error", _g(error)),
        ("lp_hull_verdict", verdict.verdict),
    ]
    passed = error <= tol and verdict.verdict == "member"
    return lines, passed


def cmd_tangent_cone(k: int, epsilon: float) -> tuple[list, bool]:
    """Facet-contact check: hyperplane contact, tangent direction, sign window."""
    report = facet_contact_check(k, epsilon)
    lines = [
        ("k", str(k)),
        ("epsilon", _g(epsilon)),
        ("contact_angle", f"{report.contact_angle} "
                          f"({_g(report.contact_angle.value)})"),
        ("hyperplane_residual", _g(report.hyperplane_residual)),
        ("hyperplane_ok", str(report.hyperplane_ok).lower()),
        ("tangent_status", report.tangent_status),
        ("tangent_step", "none" if report.tangent_step is None
                         else _g(report.tangent_step)),
        ("sign_pattern_ok", str(report.sign_pattern_ok).lower()),
        ("sign_failures", str(len(report.sign_failures))),
    ]
    return lines, report.passed


def cmd_threshold(k: int, samples: int, resolution: float,
                  tol: float) -> tuple[list, bool]:
    """Bisection estimate of the critical arc length, against the closed form."""
    estimate = estimate_threshold(k, samples, resolution)
    closed = edge_threshold(k)
    deviation = estimate.psi_hat - closed
    lo, hi = estimate.bracket
    lines = [
        ("k", str(k)),
        ("samples", str(samples)),
        ("resolution", _g(resolution)),
        ("tolerance", _g(tol)),
        ("psi_hat", _g(estimate.psi_hat)),
        ("bracket_low", _g(lo)),
        ("bracket_high", _g(hi)),
        ("bracket_width", _g(estimate.width)),
        ("closed_form", _g(closed)),
        ("deviation", _g(deviation)),
    ]
    passed = abs(deviation) <= tol and estimate.width <= resolution
    return lines, passed


def cmd_edge(k: int, alpha, beta, samples: int) -> tuple[list, bool]:
    """Edge/non-edge classification of one chord, with its evidence."""
    verdict = edge_verdict(k, alpha, beta, samples)
    lines = [
        ("k", str(k)),
        ("alpha", _g(verdict.alpha)),
        ("beta", _g(verdict.beta)),
        ("samples", str(samples)),
        ("arc_length", _g(verdict.arc_length)),
        ("threshold", _g(verdict.threshold)),
        ("verdict", verdict.verdict),
    ]
    if verdict.certificate is not None:
        lines.append(("certificate_margin", _g(verdict.certificate.margin)))
    if verdict.midpoint_witness is not None:
        lines.append(("midpoint_verdict", verdict.midpoint_witness.verdict))
    return lines, True


def cmd_membership(k: int, point, theta, iters: int, tol: float) -> tuple[list, bool]:
    """Toeplitz-completion membership test for a point of R^{2k}."""
    if k < 2:  # toeplitz_membership itself accepts k = 1
        raise ValueError(f"k must be >= 2, got {k}")
    lines = [("k", str(k))]
    if theta is not None:
        point = symmetric_curve(k, theta)
        ang = theta.value if isinstance(theta, Angle) else float(theta)
        lines.append(("theta", _g(ang)))
    lines.append(("point", ", ".join(_g(x) for x in point)))
    result = toeplitz_membership(k, point, tol=tol, max_iterations=iters)
    lines.extend(
        [
            ("tolerance", _g(tol)),
            ("max_iterations", str(iters)),
            ("membership", result.status),
            ("smallest_eigenvalue", _g(result.smallest_eigenvalue)),
            ("iterations", str(result.iterations)),
        ]
    )
    return lines, result.status != "inconclusive"


def _write_rows(fh, header: list, rows) -> int:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_g(x) for x in row) + "\n")
    return len(rows)


def _write_csv(path: str, header: list, rows) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        return _write_rows(fh, header, rows)


def _write_sectioned_csv(path: str, sections) -> int:
    """Sections are (name, header, rows); each gets a comment line + header."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, header, rows) in enumerate(sections):
            if idx:
                fh.write("\n")
            fh.write(f"# section: {name}\n")
            count += _write_rows(fh, header, rows)
    return count


def cmd_plot_data(kind: str, k: int, out: str, samples: int) -> tuple[list, bool]:
    """CSV data for external plotting: curves, facet-function graphs,
    the two nested simplices, or a midpoint-interiority sweep."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    lines = [("kind", kind), ("k", str(k)), ("out", out)]

    if kind == "curve":
        thetas = np.linspace(0.0, 2.0 * math.pi, samples)
        coords = cosine_curve_samples(k, thetas)
        header = ["theta"] + [f"x{l}" for l in range(1, k + 1)]
        rows = (np.column_stack([thetas, coords])).tolist()
        count = _write_csv(out, header, rows)
    elif kind == "f-graphs":
        thetas = np.linspace(0.0, math.pi, samples)
        cols = [facet_curve_poly_grid(k, j, thetas) for j in range(k)]
        header = ["theta"] + [f"f_{j}" for j in range(k)]
        rows = (np.column_stack([thetas] + cols)).tolist()
        count = _write_csv(out, header, rows)
    elif kind == "facet-projection":
        thetas = np.linspace(0.0, 2.0 * math.pi, samples)
        coords = cosine_curve_samples(k - 1, thetas)
        header = ["theta"] + [f"x{l}" for l in range(1, k)]
        outer = outer_simplex(k)
        inner = inner_simplex(k)
        sections = [
            ("cosine-curve", header, np.column_stack([thetas, coords]).tolist()),
            ("outer-simplex-vertices", header,
             [[a.value, *v] for a, v in zip(outer.vertex_angles, outer.vertices)]),
            ("inner-simplex-vertices", header,
             [[a.value, *v] for a, v in zip(inner.vertex_angles, inner.vertices)]),
        ]
        count = _write_sectioned_csv(out, sections)
    else:  # threshold-sweep
        grid = np.linspace(0.02, 0.5 * math.pi, 61)
        rows = []
        for theta in grid:
            probe = midpoint_interiority(k, float(theta), max(samples, 500))
            rows.append([theta, 2.0 * theta,
                         1.0 if probe.verdict == "interior" else 0.0])
        header = ["theta", "arc_length", "midpoint_interior"]
        count = _write_csv(out, header, rows)

    lines.append(("rows_written", str(count)))
    return lines, True


def _subcommand(sub, name: str, run, summary: str) -> argparse.ArgumentParser:
    """A subparser that requires ``--k`` and dispatches to ``run``."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run)
    p.add_argument("--k", type=int, required=True,
                   help="number of cosine frequencies (k >= 2)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigmoment",
        description="Verification toolkit for the convex hull of the "
                    "symmetric trigonometric moment curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "identities", cmd_identities,
                    "node-angle cosine identity residuals")
    p.add_argument("--tol", type=float, default=1e-12)

    p = _subcommand(sub, "facets", cmd_facets, "facet-function vanishing pattern")
    p.add_argument("--tol", type=float, default=ZERO_TOL)

    p = _subcommand(sub, "roots", cmd_roots, "facet-function roots vs. bisection")
    p.add_argument("--tol", type=float, default=ZERO_TOL)

    p = _subcommand(sub, "witness", cmd_witness, "origin as a convex combination")
    p.add_argument("--tol", type=float, default=RECON_TOL)

    p = _subcommand(sub, "tangent-cone", cmd_tangent_cone, "facet-contact check")
    p.add_argument("--epsilon", type=float, default=1e-3)

    p = _subcommand(sub, "threshold", cmd_threshold,
                    "estimate the critical arc length")
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=5e-3,
                   help="allowed deviation from the closed form")

    p = _subcommand(sub, "edge", cmd_edge, "classify one chord as edge / not edge")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--beta", type=parse_angle, required=True)
    p.add_argument("--samples", type=int, default=2000)

    p = _subcommand(sub, "membership", cmd_membership,
                    "Toeplitz-completion membership test")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=parse_point,
                       help="comma-separated coordinates in R^{2k}")
    group.add_argument("--theta", type=parse_angle,
                       help="shorthand for the curve point at this angle")
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-8)

    p = _subcommand(sub, "plot-data", cmd_plot_data, "CSV data for external plotting")
    p.add_argument("kind", choices=PLOT_KINDS)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--samples", type=int, default=2000)

    return parser


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    command = opts.pop("command")
    run = opts.pop("run")
    try:
        # A NaN or infinite tolerance would make every comparison vacuous.
        if "tol" in opts and not 0.0 < opts["tol"] < math.inf:
            raise ValueError(f"tol must be finite and positive, got {opts['tol']}")
        started = time.perf_counter()
        lines, passed = run(**opts)
        wall_time = time.perf_counter() - started
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvidenceContradictionError, RuntimeError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    report = [f"command: {command}"]
    report.extend(f"{key}: {value}" for key, value in lines)
    report.append(f"status: {'pass' if passed else 'fail'}")
    report.append(f"wall_time_s: {wall_time:.6f}")
    sys.stdout.write("\n".join(report) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
