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
from dataclasses import dataclass

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
    all_trig_identity_residuals,
    bisect_roots,
    facet_curve_poly,
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


def _angle_text(a: Angle) -> str:
    """Exact ``p*pi/q`` form for rational angles, 17-digit decimal otherwise."""
    if a.is_rational:
        if a.p == 0:
            return "0"
        num = "pi" if a.p == 1 else f"{a.p}*pi"
        return num if a.q == 1 else f"{num}/{a.q}"
    return _g(a.value)


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


@dataclass
class RunReport:
    """A command's deterministic key/value output plus its pass/fail status.

    ``lines`` are (key, value) pairs rendered in order; the wall time is
    rendered last and is excluded from any determinism comparison.
    """

    command: str
    lines: list
    passed: bool
    wall_time: float = 0.0

    def render(self) -> str:
        out = [f"command: {self.command}"]
        out.extend(f"{key}: {value}" for key, value in self.lines)
        out.append(f"status: {'pass' if self.passed else 'fail'}")
        out.append(f"wall_time_s: {self.wall_time:.6f}")
        return "\n".join(out) + "\n"


def _finish(command: str, lines: list, passed: bool, started: float) -> RunReport:
    return RunReport(command, lines, passed, time.perf_counter() - started)


def cmd_identities(k: int, tol: float = 1e-12) -> RunReport:
    """Residuals of the three node-angle cosine identities, all indices."""
    started = time.perf_counter()
    residuals = all_trig_identity_residuals(k)
    lines = [("k", str(k)), ("tolerance", _g(tol))]
    worst = 0.0
    for which, idx, res in residuals:
        lines.append((f"identity {which} {idx}", _g(res)))
        worst = max(worst, res)
    lines.append(("instances", str(len(residuals))))
    lines.append(("max_residual", _g(worst)))
    return _finish("identities", lines, worst <= tol, started)


def cmd_facets(k: int, tol: float = 1e-10) -> RunReport:
    """Vanishing pattern of the facet functions at the node angles."""
    started = time.perf_counter()
    report = verify_facet_description(k, tol)
    lines = [("k", str(k)), ("tolerance", _g(tol))]
    for j, i, value, ok in report.entries:
        lines.append((f"f_{j}(theta_{i})", f"{_g(value)} ({'ok' if ok else 'BAD'})"))
    lines.append(("max_offdiagonal", _g(report.max_offdiagonal)))
    lines.append(("min_diagonal", _g(report.min_diagonal)))
    return _finish("facets", lines, report.passed, started)


def cmd_roots(k: int, tol: float = 1e-10) -> RunReport:
    """Closed-form root lists of each facet function, cross-checked by bisection."""
    if k < 2:  # for k <= 0 the loop below would call no library function
        raise ValueError(f"k must be >= 2, got {k}")
    started = time.perf_counter()
    lines = [("k", str(k)), ("tolerance", _g(tol))]
    passed = True
    worst = 0.0
    for j in range(k):
        exact = facet_curve_roots(k, j)
        lines.append(
            (f"roots j={j}", ", ".join(_angle_text(a) for a in exact))
        )
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
    return _finish("roots", lines, passed, started)


def cmd_witness(k: int, tol: float = 1e-12) -> RunReport:
    """Explicit convex weights writing the origin from outer-simplex vertices."""
    started = time.perf_counter()
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
    return _finish("witness", lines, passed, started)


def cmd_tangent_cone(k: int, epsilon: float = 1e-3) -> RunReport:
    """Facet-contact check: hyperplane contact, tangent direction, sign window."""
    started = time.perf_counter()
    report = facet_contact_check(k, epsilon)
    lines = [
        ("k", str(k)),
        ("epsilon", _g(epsilon)),
        ("contact_angle", f"{_angle_text(report.contact_angle)} "
                          f"({_g(report.contact_angle.value)})"),
        ("hyperplane_residual", _g(report.hyperplane_residual)),
        ("hyperplane_ok", str(report.hyperplane_ok).lower()),
        ("tangent_status", report.tangent_status),
        ("tangent_step", "none" if report.tangent_step is None
                         else _g(report.tangent_step)),
        ("sign_pattern_ok", str(report.sign_pattern_ok).lower()),
        ("sign_failures", str(len(report.sign_failures))),
    ]
    return _finish("tangent-cone", lines, report.passed, started)


def cmd_threshold(k: int, samples: int = 4000, resolution: float = 1e-3,
                  tol: float = 5e-3) -> RunReport:
    """Bisection estimate of the critical arc length, against the closed form."""
    started = time.perf_counter()
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
        ("bracket_width", _g(hi - lo)),
        ("closed_form", _g(closed)),
        ("deviation", _g(deviation)),
    ]
    passed = abs(deviation) <= tol and (hi - lo) <= resolution
    return _finish("threshold", lines, passed, started)


def cmd_edge(k: int, alpha, beta, samples: int = 2000) -> RunReport:
    """Edge/non-edge classification of one chord, with its evidence."""
    started = time.perf_counter()
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
    return _finish("edge", lines, True, started)


def cmd_membership(k: int, point=None, theta=None, iters: int = 2000,
                   tol: float = 1e-8) -> RunReport:
    """Toeplitz-completion membership test for a point of R^{2k}."""
    if k < 2:  # toeplitz_membership itself accepts k = 1
        raise ValueError(f"k must be >= 2, got {k}")
    started = time.perf_counter()
    if (point is None) == (theta is None):
        raise ValueError("provide exactly one of --point and --theta")
    lines = [("k", str(k))]
    if theta is not None:
        point = symmetric_curve(k, theta).coords
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
    return _finish("membership", lines, result.status != "inconclusive", started)


def _write_csv(path: str, header: list, rows) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        count = 0
        for row in rows:
            fh.write(",".join(_g(x) for x in row) + "\n")
            count += 1
    return count


def _write_sectioned_csv(path: str, sections) -> int:
    """Sections are (name, header, rows); each gets a comment line + header."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, header, rows) in enumerate(sections):
            if idx:
                fh.write("\n")
            fh.write(f"# section: {name}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_g(x) for x in row) + "\n")
                count += 1
    return count


def cmd_plot_data(kind: str, k: int, out_path: str, samples: int = 2000) -> RunReport:
    """CSV data for external plotting: curves, facet-function graphs,
    the two nested simplices, or a midpoint-interiority sweep."""
    started = time.perf_counter()
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    lines = [("kind", kind), ("k", str(k)), ("out", out_path)]

    if kind == "curve":
        thetas = np.linspace(0.0, 2.0 * math.pi, samples)
        coords = cosine_curve_samples(k, thetas)
        header = ["theta"] + [f"x{l}" for l in range(1, k + 1)]
        rows = (np.column_stack([thetas, coords])).tolist()
        count = _write_csv(out_path, header, rows)
    elif kind == "f-graphs":
        thetas = np.linspace(0.0, math.pi, samples)
        cols = [facet_curve_poly_grid(k, j, thetas) for j in range(k)]
        header = ["theta"] + [f"f_{j}" for j in range(k)]
        rows = (np.column_stack([thetas] + cols)).tolist()
        count = _write_csv(out_path, header, rows)
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
        count = _write_sectioned_csv(out_path, sections)
    else:  # threshold-sweep
        grid = np.linspace(0.02, 0.5 * math.pi, 61)
        rows = []
        for theta in grid:
            probe = midpoint_interiority(k, float(theta), max(samples, 500))
            rows.append([theta, 2.0 * theta,
                         1.0 if probe.verdict == "interior" else 0.0])
        header = ["theta", "arc_length", "midpoint_interior"]
        count = _write_csv(out_path, header, rows)

    lines.append(("rows_written", str(count)))
    return _finish("plot-data", lines, True, started)


def _add_k(parser, default=None):
    kwargs = {"type": int, "help": "number of cosine frequencies (k >= 2)"}
    if default is None:
        kwargs["required"] = True
    else:
        kwargs["default"] = default
    parser.add_argument("--k", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigmoment",
        description="Verification toolkit for the convex hull of the "
                    "symmetric trigonometric moment curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="node-angle cosine identity residuals")
    _add_k(p)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("facets", help="facet-function vanishing pattern")
    _add_k(p)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("roots", help="facet-function roots vs. bisection")
    _add_k(p)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("witness", help="origin as a convex combination")
    _add_k(p)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("tangent-cone", help="facet-contact check")
    _add_k(p)
    p.add_argument("--epsilon", type=float, default=1e-3)

    p = sub.add_parser("threshold", help="estimate the critical arc length")
    _add_k(p)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=5e-3,
                   help="allowed deviation from the closed form")

    p = sub.add_parser("edge", help="classify one chord as edge / not edge")
    _add_k(p)
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--beta", type=parse_angle, required=True)
    p.add_argument("--samples", type=int, default=2000)

    p = sub.add_parser("membership", help="Toeplitz-completion membership test")
    _add_k(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=parse_point,
                       help="comma-separated coordinates in R^{2k}")
    group.add_argument("--theta", type=parse_angle,
                       help="shorthand for the curve point at this angle")
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("plot-data", help="CSV data for external plotting")
    p.add_argument("kind", choices=PLOT_KINDS)
    _add_k(p)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--samples", type=int, default=2000)

    return parser


_COMMANDS = {
    "identities": lambda a: cmd_identities(a.k, a.tol),
    "facets": lambda a: cmd_facets(a.k, a.tol),
    "roots": lambda a: cmd_roots(a.k, a.tol),
    "witness": lambda a: cmd_witness(a.k, a.tol),
    "tangent-cone": lambda a: cmd_tangent_cone(a.k, a.epsilon),
    "threshold": lambda a: cmd_threshold(a.k, a.samples, a.resolution, a.tol),
    "edge": lambda a: cmd_edge(a.k, a.alpha, a.beta, a.samples),
    "membership": lambda a: cmd_membership(a.k, point=a.point, theta=a.theta,
                                           iters=a.iters, tol=a.tol),
    "plot-data": lambda a: cmd_plot_data(a.kind, a.k, a.out, a.samples),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvidenceContradictionError, RuntimeError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
