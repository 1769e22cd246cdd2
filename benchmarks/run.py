"""trigmoment benchmark: one workload, one seed, one line of JSON.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload threshold --seed 1 --seconds 20 --trace 0

Each round of the workload runs in its own fresh worker process
(``worker.py``), one after another, until the rounds' timed phases add up to
``--seconds``; whole rounds only.  Times are reported at the machine's
nominal speed, using the slowdown each worker's gauge measured.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of traced rounds, each
paired with an untraced run of the same round to measure the tracing
overhead.  Results and span files go to
``benchmarks/results/``.  The exit code is 0 when every output checked out,
1 when one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("threshold", "chords", "membership", "identities")
MIN_SETUPS = 7           # set-up time is the median of at least this many start-ups
RUN_DEADLINE_S = 170.0   # give up well inside the 180 s a run may take


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def _worker(args, round_index: int, deadline: float, trace=False, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_index)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--spans-out",
                str(RESULTS / f"spans-{args.workload}-seed{args.seed}-round{round_index}.json")]
    started = time.perf_counter()
    # Unbuffered, so that reading the ready line leaves the rest to communicate().
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - started))[0]:
            raise BenchError(f"round {round_index} passed the run deadline")
        ready = proc.stdout.readline().decode()
        setup_s = time.perf_counter() - started
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {round_index} passed the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for round {round_index} exited {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    return "ratio" if name.endswith("_per_probe") else "count"


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    rounds, traced, setups = [], [], []
    timed = 0.0
    while not rounds or timed < args.seconds:
        plain = _worker(args, len(rounds), deadline)
        rounds.append(plain)
        setups.append((plain["setup_s"], plain["setup_slowdown"]))
        timed += plain["wall_s"]
        if args.trace:
            traced.append(_worker(args, len(rounds) - 1, deadline, trace=True))
            timed += traced[-1]["wall_s"]
    if not args.trace:
        while len(setups) < MIN_SETUPS:
            probe = _worker(args, 0, deadline, setup_only=True)
            setups.append((probe["setup_s"], probe["setup_slowdown"]))

    done = rounds + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    errors = [e for r in done for e in r["errors"]]
    correct = not any(r["wrong"] for r in done)
    threads = max((r["threads"] or 1) for r in done)
    if threads > 1:
        errors.append(f"a worker ran {threads} threads; BLAS was not pinned")
        correct = False

    # Times are divided by their round's slowdown, as measured by the gauge,
    # so that they read as on the machine at its nominal speed.
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            unit = _layer_unit(name)
            value = statistics.fmean(t["layers"][name] / (t["slowdown"] if unit == "ms" else 1.0)
                                     for t in traced)
            metrics[name] = _metric(value, unit)
        overhead = statistics.median(t["wall_s"] / t["slowdown"] - p["wall_s"] / p["slowdown"]
                                     for t, p in zip(traced, rounds))
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    else:
        latencies = [x / r["slowdown"] for r in rounds for x in r["latencies_ms"]]
        metrics = {
            "setup_s": _metric(statistics.median(raw / slow for raw, slow in setups), "s"),
            "wall_s": _metric(statistics.median(r["wall_s"] / r["slowdown"] for r in rounds), "s"),
            "latency_ms_p50": _metric(statistics.median(latencies), "ms"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in rounds), "MB"),
        }
    return {"result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics},
            "rounds": len(rounds), "errors": errors[:10],
            "round_wall_s": [r["wall_s"] for r in rounds],
            "round_slowdown": [r["slowdown"] for r in rounds],
            "setup_s_and_slowdown": setups}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trigmoment benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "trigmoment" / "__init__.py").is_file():
        print("error: run from the root of a trigmoment checkout (no src/trigmoment here)",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report["errors"]:
        print(line, file=sys.stderr)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
