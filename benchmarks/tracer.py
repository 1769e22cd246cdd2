"""Span tracing for the per-layer metrics, installed from outside the package.

Each public function is wrapped at the name its callers look it up by (for
example ``hull.lp_solve``, which ``in_hull`` and the edge certificate call),
so the package itself is not changed.  A span is (name, start, end, parent);
spans stay in memory until the round ends.  A layer's self time is its spans'
duration minus the part their child spans cover.  The hottest scalar helpers
(``cos_at``, ``rational_angle``, ``trig_identity_residual``) only count calls:
a span for each of their millions of calls would cost more than they do.
"""

from __future__ import annotations

import time
from collections import Counter
from types import SimpleNamespace

import numpy as np

# span name -> [(module, attribute)]: every place where a caller the
# workloads reach looks the function up.
SPANS = {
    "lp.lp_solve": [("hull", "lp_solve")],
    "hull.in_hull": [("hull", "in_hull")],
    "hull.interiority_probe": [("edges", "interiority_probe"), ("hull", "interiority_probe")],
    "hull.exposed_edge_certificate": [("edges", "exposed_edge_certificate")],
    "edges.estimate_threshold": [("edges", "estimate_threshold")],
    "edges.edge_verdict": [("edges", "edge_verdict")],
    "edges.midpoint_interiority": [("edges", "midpoint_interiority")],
    "angles.samples": [("edges", "cosine_curve_samples"), ("hull", "symmetric_curve_samples")],
    "facets.all_trig_identity_residuals": [("cli", "all_trig_identity_residuals")],
    "toeplitz.toeplitz_membership": [("toeplitz", "toeplitz_membership")],
    "cli.main": [("cli", "main")],
}
COUNTS = {
    "angles.cos_at": [("angles", "cos_at"), ("facets", "cos_at"), ("edges", "cos_at")],
    "angles.rational_angle": [("angles", "rational_angle"), ("facets", "rational_angle"),
                              ("edges", "rational_angle")],
    "facets.trig_identity_residual": [("facets", "trig_identity_residual")],
}
EDGES_SPANS = ("edges.estimate_threshold", "edges.edge_verdict", "edges.midpoint_interiority")


def _lp_columns(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return lp.A.shape[1]


def _sample_rows(args, kwargs, result):
    return len(result)


def _iterations(args, kwargs, result):
    return result.iterations


# span name -> (tally name, function of (args, kwargs, result) -> number)
TALLIES = {
    "lp.lp_solve": ("lp.lp_solve.columns", _lp_columns),
    "angles.samples": ("angles.samples.rows", _sample_rows),
    "toeplitz.toeplitz_membership": ("toeplitz.iterations", _iterations),
}


class Tracer:
    """Records spans and counts while installed; ``uninstall`` undoes it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.tallies = Counter()
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        tally = TALLIES.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if tally is not None:
                self.tallies[tally[0]] += tally[1](args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, attr, make):
        module = self.modules[module_name]
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for name, sites in SPANS.items():
            for module_name, attr in sites:
                self._patch(module_name, attr, lambda fn, name=name: self._span(name, fn))
        for name, sites in COUNTS.items():
            for module_name, attr in sites:
                self._patch(module_name, attr, lambda fn, name=name: self._count(name, fn))
        # toeplitz reaches LAPACK through its module-level ``np``; a plain
        # namespace copy keeps its other numpy lookups as cheap as before.
        linalg = SimpleNamespace(**{**vars(np.linalg),
                                    "eigh": self._span("toeplitz.eigh", np.linalg.eigh),
                                    "eigvalsh": self._span("toeplitz.eigh", np.linalg.eigvalsh)})
        self._patch("toeplitz", "np", lambda _: SimpleNamespace(**{**vars(np), "linalg": linalg}))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer totals of one round, in the benchmark's metric names."""
        calls, total, self_time = Counter(), Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[index]
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - child_time[index]
            if parent >= 0:
                child_time[parent] += duration
        ms = 1000.0
        probes = calls["hull.interiority_probe"]
        return {
            "lp.lp_solve.calls": calls["lp.lp_solve"],
            "lp.lp_solve.ms": total["lp.lp_solve"] * ms,
            "lp.lp_solve.columns": self.tallies["lp.lp_solve.columns"],
            "hull.in_hull.calls": calls["hull.in_hull"],
            "hull.in_hull.self_ms": self_time["hull.in_hull"] * ms,
            "hull.interiority_probe.calls": probes,
            "hull.interiority_probe.self_ms": self_time["hull.interiority_probe"] * ms,
            "hull.in_hull_per_probe": calls["hull.in_hull"] / probes if probes else 0.0,
            "hull.exposed_edge_certificate.calls": calls["hull.exposed_edge_certificate"],
            "hull.exposed_edge_certificate.self_ms":
                self_time["hull.exposed_edge_certificate"] * ms,
            "edges.midpoint_interiority.calls": calls["edges.midpoint_interiority"],
            "edges.self_ms": sum(self_time[name] for name in EDGES_SPANS) * ms,
            "angles.samples.ms": total["angles.samples"] * ms,
            "angles.samples.rows": self.tallies["angles.samples.rows"],
            "angles.cos_at.calls": self.counts["angles.cos_at"],
            "angles.rational_angle.calls": self.counts["angles.rational_angle"],
            "facets.all_trig_identity_residuals.ms":
                total["facets.all_trig_identity_residuals"] * ms,
            "facets.trig_identity_residual.calls": self.counts["facets.trig_identity_residual"],
            "toeplitz.toeplitz_membership.calls": calls["toeplitz.toeplitz_membership"],
            "toeplitz.iterations": self.tallies["toeplitz.iterations"],
            "toeplitz.eigh.calls": calls["toeplitz.eigh"],
            "toeplitz.eigh.ms": total["toeplitz.eigh"] * ms,
            "toeplitz.self_ms": self_time["toeplitz.toeplitz_membership"] * ms,
            "cli.main.ms": total["cli.main"] * ms,
            "cli.self_ms": self_time["cli.main"] * ms,
        }
