"""Timed and traced runs of one workload.

A timed run measures the end-to-end metrics with no tracing at all.  A
traced run measures the per-layer metrics: for every operation it times the
untraced call, replays the pipeline's public calls inside spans, and measures
peak allocation in a third, separate pass.

The operation times of a timed run are calibrated.  On a shared virtual
machine the speed of the same code drifts by about 20 % over minutes, and a
longer run does not average that out.  A timed run therefore also times a
fixed NumPy kernel between operations and scales each operation time by the
kernel's reference time over its median time in the run.  The kernel does not
call the program, so a change to the program moves the calibrated times in
full; the raw times are printed in the environment block.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from revmarkov import nearest_sparse_reversible
from spans import (
    CALL_METRICS,
    COUNT_METRICS,
    LAYERS,
    Tracer,
    alloc_pass,
    replay_pipeline,
)
from workloads import check, operate, run_keys

#: Time (s) of the calibration kernel at the speed operation times are scaled
#: to: its median on a 2-core virtual machine.  It only fixes the scale.
CALIBRATION_REF_S = 0.039
#: Seconds between calibration samples in a timed run.
CALIBRATION_EVERY = 1.0

#: Relative agreement the replay's distance must reach with the pipeline's
#: for the per-layer numbers to count as mirroring the pipeline.
REPLAY_RTOL = 1e-12


def log(message: str):
    print(message, file=sys.stderr, flush=True)


# -- inputs ---------------------------------------------------------------------


def bank(workload, reference: dict) -> list:
    """The stored cases of ``workload``; refuses a reference built for other
    workload parameters."""
    entry = reference["workloads"][workload.name]
    built = (entry["params"], len(entry["cases"]))
    wanted = (workload.params, workload.bank_size)
    if built != wanted:
        raise ValueError(
            f"reference for {workload.name} was built for {built}, the workload "
            f"is {wanted}; rebuild it with make_reference.py"
        )
    return entry["cases"]


def prepare(workload, cases: list, seed: int) -> list:
    """``(input, reference case)`` pairs of one run, in run order."""
    by_key = {case["key"]: case for case in cases}
    keys = run_keys([case["key"] for case in cases], seed)
    return [(workload.make_input(key), by_key[key]) for key in keys]


def warm_up(workload, inputs):
    """One untimed, verified operation, so first-call costs land in set-up."""
    inp, ref = inputs[0]
    problems = check(*operate(workload, inp), ref)
    if problems:
        raise RuntimeError(f"warm-up operation failed the gate: {problems}")


# -- environment ----------------------------------------------------------------


def _blas_vendor() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _langevin_kernel() -> str:
    return "numba" if importlib.util.find_spec("numba") else "python"


def _commit(root: Path):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src" / "revmarkov"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "langevin_kernel": _langevin_kernel(),
    }


# -- calibration ----------------------------------------------------------------


def _calibration_kernel(A):
    for k in range(A.shape[0] - 1, 300, -1):
        A[:k, :k] += np.outer(A[:k, k], A[k, :k]) * 1e-9


class Calibration:
    """Times of the calibration kernel sampled through one run."""

    def __init__(self):
        self.samples = []
        self._matrix = np.random.default_rng(0).random((400, 400))

    def sample(self):
        A = self._matrix.copy()
        start = time.perf_counter()
        _calibration_kernel(A)
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's measured times to calibrated times."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


# -- timed run ------------------------------------------------------------------


def _attempt(workload, inp, ref):
    """``(seconds, problems)`` of one operation; a raise is a problem."""
    start = time.perf_counter()
    try:
        P, R, diag = operate(workload, inp)
    except Exception as exc:  # counted as a failed operation; the run goes on
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    return elapsed, check(P, R, diag, ref)


def timed_run(workload, inputs: list, seconds: float) -> dict:
    """Operations back to back (a closed loop with one client) until
    ``seconds`` have passed; the last one started is completed.  The
    calibration kernel runs before, between and after the operations."""
    times, failed = [], 0
    calibration = Calibration()
    calibration.sample()
    start = last_sample = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        inp, ref = inputs[len(times) % len(inputs)]
        elapsed, problems = _attempt(workload, inp, ref)
        times.append(elapsed)
        if problems:
            failed += 1
            log(f"operation {len(times) - 1} (case {ref['key']}) failed: {problems}")
        if time.perf_counter() - last_sample >= CALIBRATION_EVERY:
            calibration.sample()
            last_sample = time.perf_counter()
    calibration.sample()
    return {"times": times, "failed": failed, "calibration": calibration}


def end_to_end_metrics(run: dict, setup_s: float) -> dict:
    """Metrics from one timed run; ``setup_s`` is the measured set-up time."""
    times = run["times"]
    attempted = len(times)
    verified = attempted - run["failed"]
    scale = run["calibration"].scale()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "model_s_p50": (statistics.median(times) * scale, "s"),
        "models_per_s": (verified / (sum(times) * scale), "1/s"),
        "verified_frac": (verified / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


# -- traced run -----------------------------------------------------------------


def traced_run(workload, inputs: list, seconds: float) -> dict:
    """Per operation: the untraced call, the traced replay, the alloc pass."""
    tracer = Tracer()
    ops, failed = [], 0
    pipeline_failed = 0
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        index = len(ops)
        inp, ref = inputs[index % len(inputs)]
        tracer.op = index
        op = {"case": ref["key"], "ok": False}
        ops.append(op)
        try:
            t0 = time.perf_counter()
            P = workload.to_chain(inp)
            t1 = time.perf_counter()
            try:
                R, diag = nearest_sparse_reversible(P)
            except Exception:
                pipeline_failed += 1
                raise
            t2 = time.perf_counter()
            problems = check(P, R, diag, ref)
            if problems:
                raise RuntimeError(f"gate: {problems}")
            with tracer.span("benchmark.operation") as traced:
                P_replay = workload.to_chain(inp, tracer.span)
                replay = len(tracer.spans)
                with tracer.span("benchmark.replay"):
                    _, _, distance = replay_pipeline(P_replay, tracer.span)
            stationary_mb, solve_mb = alloc_pass(P)
        except Exception as exc:  # counted as a failed operation; the run goes on
            failed += 1
            log(f"operation {index} (case {ref['key']}) failed: {exc!r}")
            continue
        op.update(
            ok=True,
            untraced_s=t2 - t0,
            call_s=t2 - t1,
            traced_s=traced.end - traced.start,
            replay=replay,
            mirrors=math.isclose(distance, diag.distance, rel_tol=REPLAY_RTOL),
            stationary_alloc_mb=stationary_mb,
            solve_alloc_mb=solve_mb,
        )
    return {
        "tracer": tracer,
        "ops": ops,
        "failed": failed,
        "pipeline_failed": pipeline_failed,
    }


def per_layer_metrics(run: dict) -> dict:
    tracer, ops = run["tracer"], run["ops"]
    own = tracer.self_times()
    calls = defaultdict(lambda: defaultdict(float))  # op -> span name -> self s
    counts = defaultdict(lambda: defaultdict(float))  # op -> counter -> sum
    layer_failed = {layer: 0 for layer in LAYERS}
    layer_failed["pipeline"] += run["pipeline_failed"]
    for span, seconds in zip(tracer.spans, own):
        calls[span.op][span.name] += seconds
        for key, value in span.counts.items():
            counts[span.op][key] += value
        layer = span.name.split(".")[0]
        if span.failed and layer in layer_failed:
            layer_failed[layer] += 1

    done = [i for i, op in enumerate(ops) if op["ok"]]
    if not done:
        raise RuntimeError("no operation completed in the traced run")

    def median(values):
        return statistics.median(list(values))

    def calls_median(prefix):
        return median(
            sum(s for name, s in calls[i].items() if name.startswith(prefix))
            for i in done
        )

    metrics = {}
    for layer in ("chain_analysis", "sparse_core", "qp_build", "experiments"):
        metrics[f"{layer}.self_s"] = (calls_median(layer + "."), "s")
    for metric, name in CALL_METRICS.items():
        metrics[metric] = (median(calls[i][name] for i in done), "s")
    for metric, key in COUNT_METRICS.items():
        metrics[metric] = (median(counts[i][key] for i in done), "count")
    langevin = [calls[i]["experiments.langevin_trajectory"] for i in done]
    steps = [counts[i]["steps"] for i in done]
    metrics["experiments.langevin_steps_per_s"] = (
        median(n / s if s > 0 else 0.0 for n, s in zip(steps, langevin)),
        "1/s",
    )
    metrics["chain_analysis.stationary_alloc_mb"] = (
        median(ops[i]["stationary_alloc_mb"] for i in done),
        "MB",
    )
    metrics["qp_solve.solve_alloc_mb"] = (
        median(ops[i]["solve_alloc_mb"] for i in done),
        "MB",
    )

    def replayed_s(index):  # time covered by the replay span's children
        span = tracer.spans[index]
        return span.end - span.start - own[index]

    # an estimate: the untraced pipeline call minus the replayed calls
    metrics["pipeline.self_s"] = (
        median(ops[i]["call_s"] - replayed_s(ops[i]["replay"]) for i in done),
        "s",
    )
    metrics["pipeline.call_s"] = (median(ops[i]["call_s"] for i in done), "s")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (layer_failed[layer], "count")
    untraced = median(ops[i]["untraced_s"] for i in done)
    traced = median(ops[i]["traced_s"] for i in done)
    metrics["trace.untraced_op_s"] = (untraced, "s")
    metrics["trace.traced_op_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.replay_mismatches"] = (
        sum(not ops[i]["mirrors"] for i in done),
        "count",
    )
    return metrics


def write_trace(path: Path, env: dict, run: dict, metrics: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "environment": env,
        "estimates": ["pipeline.self_s"],
        "mirrors_pipeline": metrics["trace.replay_mismatches"][0] == 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "operations": run["ops"],
        "spans": run["tracer"].to_json(),
    }
    path.write_text(json.dumps(payload))
