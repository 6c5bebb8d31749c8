"""Closed-loop benchmark of tangentray.

Run from the repository root:

    python3 bench/run.py --workload field_caret --seed 1 --seconds 15 --trace 0

One client in one single-threaded process issues the workload's operations
back to back: the next starts when the previous one returns.  The seed draws
one pass, a fixed list of ops; whole passes run until ``--seconds`` have
passed, and every timing is the median over passes.  Every op's output is
checked outside the timed region, and a repeated op must repeat its output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the pass
three times, each in a fresh process after the same set-up: untraced here,
then traced in two child processes.  It prints the per-layer metrics, and
checks that all three give bit-identical outputs and that the two traced
passes count exactly the same work.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it that
start with ``#`` are for people: the environment, the failing ops and, in a
traced run, the spans by self time.
"""

import os

# one BLAS thread, pinned before numpy is first imported (child processes
# inherit the environment)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tangentray"

RESIDUE_TERMS = 300        # residue-series cap of the batched caret route
SETUP_SAMPLES = 3          # fresh processes timed for setup_s, this one included
CHILD_TIMEOUT_S = 150

# Shared 2-core machines change speed by up to 1.7x for minutes at a time, as
# other tenants load the cores.  So a fixed reference kernel is timed in the
# same process at least every REFERENCE_EVERY_S seconds of ops, and timings
# are scaled to the speed at which that kernel takes REFERENCE_S.  The raw
# wall times are printed beside them.
REFERENCE_S = 0.030
REFERENCE_EVERY_S = 1.0
REFERENCE_REPS = 800


def setup() -> float:
    """Import tangentray and warm its tables; returns the seconds taken.

    Warm-up fills the Airy zero tables, the asymptotic u_k table and the
    residue data (Airy zeros, impedance roots) of the field workloads'
    boundary kinds up to the batched route's cap.  A Robin mu_hat that is
    drawn later pays its own root homotopy when first used."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    from tangentray import airy, pekeris
    airy.ai_zeros(RESIDUE_TERMS)
    airy.ai_prime_zeros(RESIDUE_TERMS)
    airy.airy_scaled_vec(np.array([10.0 + 0j]))
    for bc in (pekeris.DIRICHLET, pekeris.NEUMANN, pekeris.robin(1 + 1j)):
        # rel_tol=0 never converges, so the series runs to max_terms
        pekeris.caret_residue_series(0.5, bc, rel_tol=0.0, max_terms=RESIDUE_TERMS)
    return time.perf_counter() - t0


def reference() -> float:
    """Median seconds of three back-to-back runs of a fixed kernel of the
    benchmark's own: small complex numpy arrays and scalar complex
    arithmetic, the mix the library runs.  (The first run after library
    work is often slower than the machine's speed; the median drops it.)"""
    return statistics.median(_reference_once() for _ in range(3))


def _reference_once() -> float:
    import numpy as np
    z0 = np.linspace(0.1, 4.0, 64) * complex(math.cos(0.3), math.sin(0.3))
    acc = 0j
    t0 = time.perf_counter()
    for k in range(REFERENCE_REPS):
        z = z0 * (1.0 + 1e-6 * k)
        acc += complex(np.sum(np.exp(-(2.0 / 3.0) * z ** 1.5) / np.sqrt(z)))
        for j in range(8):
            w = complex(math.cos(k + j), math.sin(k + j)) * (1 + (k + j) % 7)
            acc += w ** 1.5 + math.exp(-abs(w))
    return time.perf_counter() - t0


class Pass:
    """One pass over the ops: outputs, and per-op wall and scaled latencies.

    The reference kernel runs before the first op, after the last, and
    between ops once REFERENCE_EVERY_S has passed; the ops between two of its
    runs are scaled by the mean of those two times."""

    def __init__(self, ops: list):
        clock = time.perf_counter
        self.outputs, self.wall, self.scaled = [], [], []
        ref = reference()
        start, last_ref = 0, clock()
        for i, op in enumerate(ops):
            if clock() - last_ref >= REFERENCE_EVERY_S:
                ref = self._scale(start, i, ref)
                start, last_ref = i, clock()
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:    # a failed op is recorded, and the run goes on
                out = exc
            self.wall.append(clock() - t0)
            self.outputs.append(out)
        self._scale(start, len(ops), ref)

    def _scale(self, start: int, stop: int, ref_before: float) -> float:
        ref_after = reference()
        factor = 2.0 * REFERENCE_S / (ref_before + ref_after)
        self.scaled.extend(w * factor for w in self.wall[start:stop])
        return ref_after

    @property
    def wall_s(self) -> float:
        return sum(self.wall)

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled)


def scaled_setup() -> tuple:
    """(wall, scaled) seconds of this process's set-up."""
    wall = setup()
    return wall, wall * REFERENCE_S / reference()


def run_timed(ops: list, seconds: float) -> list:
    """Whole passes over ``ops`` until ``seconds`` of ops have run."""
    passes, elapsed = [], 0.0
    while elapsed < seconds:
        passes.append(Pass(ops))
        elapsed += passes[-1].wall_s
    return passes


def failures(ops: list, outputs: list) -> tuple:
    """(failed, unverified): (label, reason) of every failed op, and of every
    op no independent representation could check.  Each distinct op is
    checked once; a repeat of an op must give the same output as its first
    run."""
    from workloads import Unverified
    first, verdict, failed, unverified = {}, {}, [], []
    for op, out in zip(ops, outputs):
        key = id(op)
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        elif key in first:
            reason = verdict[key] if first[key] == out else "output differs from an earlier run"
        else:
            first[key] = out
            try:
                reason = op.check(out)
            except Unverified as exc:
                reason = None
                unverified.append((op.label, str(exc)))
            except Exception as exc:    # an oracle that cannot run verifies nothing
                reason = f"check raised {type(exc).__name__}: {exc}"
            verdict[key] = reason
        if reason is not None:
            failed.append((op.label, reason))
    return failed, unverified


def digest(outputs: list) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out if not isinstance(out, Exception) else
                      (type(out).__name__, str(out))).encode())
    return h.hexdigest()


def child(args: list) -> dict:
    """Run this script in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve())] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_threads():
    """Threads of the BLAS that numpy loaded, when it is a bundled OpenBLAS."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        # for information only
        "src_lines": {p.stem: sum(1 for _ in p.open()) for p in sorted(PACKAGE.glob("*.py"))},
    }


def percentile(values: list, k: int) -> float:
    """The k-th percentile, k a multiple of 10 (statistics' default method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[k // 10 - 1]


def end_to_end(workload, seed: int, seconds: float, own_setup: tuple) -> tuple:
    """Timings are medians over passes, each pass doing the same work."""
    ops = workload.pass_ops(seed)
    passes = run_timed(ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_ops = ops * len(passes)
    failed, unverified = failures(all_ops, [out for p in passes for out in p.outputs])
    setups = [own_setup] + [tuple(child(["--child", "setup"])["setup_s"])
                        for _ in range(SETUP_SAMPLES - 1)]
    print(f"# {workload.name}: {len(passes)} passes of {len(ops)} ops; wall "
          f"{', '.join(f'{p.wall_s:.3f}' for p in passes)} s; scaled "
          f"{', '.join(f'{p.scaled_s:.3f}' for p in passes)} s")
    print(f"# set-up wall {', '.join(f'{w:.3f}' for w, _ in setups)} s; scaled "
          f"{', '.join(f'{s:.3f}' for _, s in setups)} s")
    n = len(all_ops)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (statistics.median(len(ops) / p.scaled_s for p in passes), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(percentile(p.scaled, 50) for p in passes), "ms"),
        "latency_p90_ms": (1e3 * statistics.median(percentile(p.scaled, 90) for p in passes), "ms"),
        "ok_frac": ((n - len(failed)) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, n, failed, unverified, []


def traced_pass(workload, seed: int) -> dict:
    """Child side of a traced run: one pass, traced."""
    from tracer import Tracer
    ops = workload.pass_ops(seed)
    tracer = Tracer()
    tracer.install()
    try:
        p = Pass(ops)
    finally:
        tracer.uninstall()
    return {"digest": digest(p.outputs), "elapsed": p.scaled_s,
            "metrics": tracer.metrics(), "functions": tracer.functions()[:12]}


def per_layer(workload, seed: int) -> tuple:
    ops = workload.pass_ops(seed)
    untraced = Pass(ops)
    outputs, untraced_s = untraced.outputs, untraced.scaled_s
    failed, unverified = failures(ops, outputs)
    runs = [child(["--child", "traced", "--workload", workload.name, "--seed", str(seed)])
            for _ in range(2)]
    problems = []
    if any(r["digest"] != digest(outputs) for r in runs):
        problems.append("traced outputs differ from the untraced pass or from each other")
    counts = [{k: v for k, v in r["metrics"].items() if v[1] == "count"} for r in runs]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"two traced runs with one seed counted different work: {diff}")
    metrics = {k: tuple(v) for k, v in runs[0]["metrics"].items()}
    for k, (value, unit) in metrics.items():
        if unit == "s":
            metrics[k] = (statistics.fmean(r["metrics"][k][0] for r in runs), unit)
    traced_s = statistics.fmean(r["elapsed"] for r in runs)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    traced = ", ".join(f"{r['elapsed']:.3f}" for r in runs)
    print(f"# {workload.name}: {len(ops)} ops; untraced {untraced_s:.3f} s, traced {traced} s")
    for name, calls, self_s in runs[0]["functions"]:
        print(f"#   span {name:40s} calls {calls:9d}  self {self_s:9.4f} s")
    return metrics, len(ops), failed, unverified, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "traced"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no tangentray sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = scaled_setup()
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.child == "traced":
        print(json.dumps(traced_pass(workload, args.seed)))
        return 0

    print("# env " + json.dumps(environment()))
    if args.trace:
        metrics, attempted, failed, unverified, problems = per_layer(workload, args.seed)
    else:
        metrics, attempted, failed, unverified, problems = end_to_end(
            workload, args.seed, args.seconds, setup_s)
    for label, reason in failed:
        print(f"# FAILED {label}: {reason}")
    for label, reason in unverified:
        print(f"# UNVERIFIED {label}: {reason}")
    for problem in problems:
        print(f"# NOT DETERMINISTIC: {problem}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
