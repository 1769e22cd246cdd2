"""One round of one workload in a fresh interpreter.

Run by ``run.py`` from the root of a checkout:

    python3 benchmarks/worker.py --workload W --seed S --round R [--trace] [--setup-only]

The worker imports the package from ``src/``, builds the round's inputs and
prints ``ready``; the time until that line is the set-up time.  It then runs
the operations one after another (a closed loop with one caller), checks
each output with the clock stopped, and prints one JSON line: per-operation
times, the machine-speed gauge, failures, check results and peak RSS.  With
``--trace`` it records spans and adds the round's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"

# The gauge: a fixed kernel of Python arithmetic and small numpy calls, the
# mix of the package's hot paths.  A timer signal runs one chunk every
# GAUGE_EVERY_S of wall time, so the machine's speed is sampled evenly through
# every operation.  Each chunk starts with caches the package has just used,
# so it slows with cache and core contention much as the package does.  This
# costs about 3 % of the time, and operation times leave it out.  The nominal
# chunk time is the median of back-to-back chunks over one minute on the
# 2-core Xeon VM (KVM, 2.0 GHz) the benchmark was tuned on.
GAUGE_NOMINAL_MS = 0.180
GAUGE_EVERY_S = 0.01
SETUP_GAUGE_CHUNKS = 100


def _import_package() -> dict:
    sys.path.insert(0, str(SRC))
    import trigmoment
    from trigmoment import angles, cli, edges, facets, hull, toeplitz

    if Path(trigmoment.__file__).resolve().parent != (SRC / "trigmoment").resolve():
        raise SystemExit(f"trigmoment imported from {trigmoment.__file__}, not {SRC}")
    return dict(angles=angles, cli=cli, edges=edges, facets=facets, hull=hull,
                toeplitz=toeplitz)


class Gauge:
    """Runs gauge chunks and adds up their time."""

    def __init__(self, np):
        self.vector = np.arange(64.0)
        self.ms = 0.0
        self.chunks = 0

    def run(self, chunks: int) -> None:
        started = time.perf_counter()
        for _ in range(chunks):
            total = 0.0
            for i in range(150):
                total += float(self.vector @ self.vector) + math.cos(i)
        self.ms += (time.perf_counter() - started) * 1000.0
        self.chunks += chunks

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.run(1))
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    @property
    def slowdown(self) -> float:
        """Mean chunk time over the nominal one; 1.0 is nominal speed."""
        return self.ms / self.chunks / GAUGE_NOMINAL_MS


def _threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file to write the round's spans to")
    args = parser.parse_args(argv)

    # Pin BLAS to one thread before numpy loads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    modules = _import_package()
    sys.path.insert(0, str(HERE))
    from workloads import check_op, make_inputs, run_op

    ops = make_inputs(args.workload, args.seed, args.round)
    print("ready", flush=True)
    # The speed right after set-up, to put set-up time at nominal speed.
    setup_gauge = Gauge(np)
    setup_gauge.run(SETUP_GAUGE_CHUNKS)
    if args.setup_only:
        print(json.dumps({"setup_slowdown": setup_gauge.slowdown}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(modules)
        tracer.install()

    gauge = Gauge(np)
    gauge.start()
    latencies, failures, errors = [], 0, []
    for op in ops:
        # Read the gauge inside the timed span, so that a tick can only be
        # left in an operation's time, never taken out twice.
        started = time.perf_counter()
        gauge_before = gauge.ms
        try:
            result = run_op(args.workload, op, modules)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures += 1
            errors.append(f"failed: {type(exc).__name__}: {exc}")
            result = None
        gauge_ms = gauge.ms - gauge_before
        latencies.append((time.perf_counter() - started) * 1000.0 - gauge_ms)
        if result is not None:
            reason = check_op(args.workload, op, result)
            if reason is not None:
                errors.append(f"wrong: {reason}")
    gauge.stop()

    out = {
        "attempted": len(ops),
        "failed": failures,
        "wrong": sum(e.startswith("wrong") for e in errors),
        "errors": errors[:5],
        "latencies_ms": latencies,
        "wall_s": sum(latencies) / 1000.0,
        "slowdown": gauge.slowdown,
        "setup_slowdown": setup_gauge.slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
