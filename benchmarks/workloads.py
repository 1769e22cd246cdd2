"""The four benchmark workloads: seeded inputs, the operation, and its check.

Every workload is a list of rounds.  A round is the unit one fresh worker
process runs; its inputs come only from (seed, workload, round index), so the
same seed always gives the same inputs.  No two operations in a round share
their inputs.  Checks compare each output with facts derived independently
of the package (the paper's closed form for the threshold, the geometry of
the constructed points, the identities' stated instance count), never with
recorded output of the package itself.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

WORKLOADS = ("threshold", "chords", "membership", "identities")

# threshold: the acceptance sample counts; round 0 uses them exactly, later
# rounds add a distinct seeded offset so no estimate repeats its inputs.
THRESHOLD_SAMPLES = {2: 4000, 3: 4000, 4: 5000, 5: 6000}
THRESHOLD_RESOLUTION = 1e-3
THRESHOLD_TOL = 5e-3
MAX_SAMPLE_OFFSET = 400

CHORD_SAMPLES = 1500
CHORDS_PER_K = 80          # per k = 2..5, so 320 operations per round
CHORD_MIN_ARC = 0.3
CHORD_GAP = 0.05           # largest arc is psi_k - CHORD_GAP

# membership mix per k = 2..6.  The immediate accepts (curve points and the
# interior points whose zero completion is already PSD) take ~0.1 ms, the
# iterating ones 3-35 ms; with 35 % interior, 55 % outside and 10 % curve
# points the immediate share stays near 40 %, so the median falls inside
# the iterating operations rather than on the gap between the two.
MEMBERSHIP_MIX = {"interior": 35, "outside": 55, "curve": 10}
MEMBERSHIP_TOL = 1e-8
EIG_TOL = 1e-8

IDENTITY_KS = range(2, 51)
IDENTITY_TOL = 1e-12


def psi(k: int) -> float:
    """Critical arc 2*pi*(k-1)/(2k-1), from the paper's closed form."""
    return 2.0 * math.pi * (k - 1) / (2 * k - 1)


def sm(k: int, t) -> np.ndarray:
    """SM_2k(t) = (cos t, cos 3t, ..., sin t, sin 3t, ...); rows for arrays."""
    args = np.multiply.outer(np.asarray(t, dtype=float), 2.0 * np.arange(1, k + 1) - 1.0)
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


def _rng(seed: int, workload: str, *tail: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), *tail])


def make_inputs(workload: str, seed: int, round_index: int) -> list:
    """The operations of one round, as plain tuples, in the order they run."""
    if workload == "threshold":
        # One operation is a whole sweep k = 2..5: its four estimates differ
        # in cost by 4x, so a median over single estimates would sit between
        # k = 3 and k = 4.
        if round_index == 0:
            samples = dict(THRESHOLD_SAMPLES)
        else:
            samples = {}
            for k, base in THRESHOLD_SAMPLES.items():
                offsets = _rng(seed, workload, k).permutation(MAX_SAMPLE_OFFSET) + 1
                samples[k] = base + int(offsets[(round_index - 1) % MAX_SAMPLE_OFFSET])
        return [tuple(sorted(samples.items()))]

    rng = _rng(seed, workload, 1_000_000 + round_index)
    ops = []
    if workload == "chords":
        for k in range(2, 6):
            for _ in range(CHORDS_PER_K):
                alpha = float(rng.uniform(0.0, 2.0 * math.pi))
                arc = float(rng.uniform(CHORD_MIN_ARC, psi(k) - CHORD_GAP))
                beta = alpha + arc if rng.random() < 0.5 else alpha - arc
                ops.append((k, alpha, beta))
    elif workload == "membership":
        for k in range(2, 7):
            for kind, count in MEMBERSHIP_MIX.items():
                for _ in range(count):
                    ops.append((k, kind, _membership_point(rng, k, kind)))
    elif workload == "identities":
        ops = [int(k) for k in rng.permutation(list(IDENTITY_KS))]
        return ops
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _membership_point(rng: np.random.Generator, k: int, kind: str) -> np.ndarray:
    if kind == "interior":
        # r * (convex mixture of >= 2k+1 curve points), r <= 0.9: the body is
        # centrally symmetric with the origin inside, so this is interior.
        m = int(rng.integers(2 * k + 1, 4 * k + 2))
        weights = rng.dirichlet(np.ones(m))
        mixture = weights @ sm(k, rng.uniform(0.0, 2.0 * math.pi, m))
        return float(rng.uniform(0.3, 0.9)) * mixture
    if kind == "outside":
        # Every curve point has norm sqrt(k), so the body lies in that ball.
        direction = rng.normal(size=2 * k)
        direction /= np.linalg.norm(direction)
        return direction * math.sqrt(k) * float(rng.uniform(1.05, 1.5))
    return sm(k, float(rng.uniform(0.0, 2.0 * math.pi)))


def run_op(workload: str, op, modules):
    """Run one operation through the package's public functions.

    Functions are looked up on the modules in ``modules`` at call time, so
    that the traced run sees its wrappers.
    """
    if workload == "threshold":
        edges = modules["edges"]
        return [edges.estimate_threshold(k, n, THRESHOLD_RESOLUTION) for k, n in op]
    if workload == "chords":
        k, alpha, beta = op
        return modules["edges"].edge_verdict(k, alpha, beta, CHORD_SAMPLES)
    if workload == "membership":
        k, _, point = op
        return modules["toeplitz"].toeplitz_membership(k, point, tol=MEMBERSHIP_TOL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = modules["cli"].main(["identities", "--k", str(op)])
    return code, out.getvalue()


def check_op(workload: str, op, result) -> str | None:
    """None when the output is right, else a one-line reason."""
    check = {"threshold": _check_threshold, "chords": _check_chord,
             "membership": _check_membership, "identities": _check_identities}[workload]
    return check(op, result)


def _check_threshold(op, estimates) -> str | None:
    for (k, _), est in zip(op, estimates):
        lo, hi = est.bracket
        if abs(est.psi_hat - psi(k)) >= THRESHOLD_TOL:
            return f"k={k}: psi_hat {est.psi_hat} is {est.psi_hat - psi(k):+.2e} off"
        if not 0.0 < hi - lo <= THRESHOLD_RESOLUTION:
            return f"k={k}: bracket width {hi - lo} exceeds {THRESHOLD_RESOLUTION}"
        # "interior" against a sampled hull, which lies inside the body, is a
        # true non-edge, so the upper end can never fall below psi_k.
        if hi < psi(k):
            return f"k={k}: bracket high {hi} below psi_k {psi(k)}"
    return None


def _circle_distance(t: np.ndarray, x: float) -> np.ndarray:
    d = np.mod(t - x, 2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def _check_chord(op, verdict) -> str | None:
    k, alpha, beta = op
    if verdict.verdict != "edge" or verdict.certificate is None:
        return f"k={k} arc {abs(beta - alpha):.4f}: verdict {verdict.verdict!r}"
    functional = verdict.certificate.functional
    margin = verdict.certificate.margin

    def g(points):
        return functional.constant + points @ functional.coeffs

    pins = np.abs(g(sm(k, np.array([alpha, beta]))))
    if pins.max() > 1e-6:
        return f"k={k}: functional misses an endpoint by {pins.max():.2e}"
    # The method's own grid: equispaced, minus ten spacings around each end.
    ts = np.linspace(0.0, 2.0 * math.pi, CHORD_SAMPLES, endpoint=False)
    radius = 10.0 * (2.0 * math.pi / CHORD_SAMPLES)
    kept = ts[(_circle_distance(ts, alpha) > radius) & (_circle_distance(ts, beta) > radius)]
    worst = float(g(sm(k, kept)).max())
    if not margin > 0.0 or worst > -margin + 1e-9:
        return f"k={k}: functional reaches {worst:.3e} on the grid, margin {margin:.3e}"
    return None


def _check_membership(op, verdict) -> str | None:
    k, kind, point = op
    if kind == "outside":
        if verdict.status != "not_member_likely":
            return f"k={k} outside point: status {verdict.status!r}"
        return None
    if verdict.status != "member":
        return f"k={k} {kind} point: status {verdict.status!r}"
    m = np.asarray(verdict.matrix)
    n = 2 * k
    if m.shape != (n, n) or np.abs(m - m.conj().T).max() > 1e-12:
        return f"k={k}: certificate is not Hermitian"
    first_row = m[0]
    for d in range(n):
        if np.abs(np.diagonal(m, offset=d) - first_row[d]).max() > 1e-12:
            return f"k={k}: certificate is not Toeplitz at distance {d}"
    expected = point[:k] + 1j * point[k:]
    if abs(first_row[0] - 1.0) > 1e-12 or np.abs(first_row[1::2] - expected).max() > 1e-12:
        return f"k={k}: certificate does not carry the point"
    eig = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if eig[0] < -MEMBERSHIP_TOL:
        return f"k={k}: smallest eigenvalue {eig[0]:.3e}"
    if kind == "curve" and (abs(eig[-1] - n) > EIG_TOL or np.abs(eig[:-1]).max() > EIG_TOL):
        return f"k={k}: curve certificate is not rank one (eigenvalues {eig})"
    return None


def _check_identities(k: int, result) -> str | None:
    code, text = result
    if code != 0:
        return f"identities --k {k} exited {code}"
    residuals, instances = [], None
    for line in text.splitlines():
        key, _, value = line.rpartition(": ")
        if key.startswith("identity "):
            residuals.append(float(value))
        elif key == "instances":
            instances = int(value)
    expected = (k - 1) + (2 * k - 2) + k * (k - 1)
    if len(residuals) != expected or instances != expected:
        return f"k={k}: {len(residuals)} residual lines, {instances} reported, {expected} expected"
    worst = max(residuals)
    if not worst <= IDENTITY_TOL:
        return f"k={k}: residual {worst:.3e} above {IDENTITY_TOL}"
    return None
