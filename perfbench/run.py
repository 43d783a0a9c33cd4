"""revmarkov benchmark: one workload per process.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout; the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is the environment block.  ``--workload all`` runs every workload timed and
then traced, each run in its own process, and ends with one JSON object keyed
by workload and mode.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ensemble", "expander", "ring", "torsion")
#: Extra set-up measurements, each in a fresh process, besides the run's own.
SETUP_PROBES = 2
CHILD_TIMEOUT = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_args(args, workload, trace, *extra):
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
        *extra,
    ]


def run_child(argv, timeout):
    """Last stdout line of a child run, parsed; the child is always reaped."""
    out = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if out.returncode != 0:
        raise RuntimeError(f"{argv[3:]} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        for mode, trace in (("timed", 0), ("traced", 1)):
            result = run_child(child_args(args, name, trace), timeout=None)
            results.setdefault(name, {})[mode] = result
            print(name, mode, json.dumps(result), flush=True)
    print(json.dumps(results))
    ok = all(r["correct"] for modes in results.values() for r in modes.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "revmarkov" / "__init__.py").is_file():
        print(f"no revmarkov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))

    import statistics

    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    inputs = bench.prepare(workload, bench.bank(workload, reference), args.seed)
    bench.warm_up(workload, inputs)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = bench.environment(ROOT, args.workload, args.seed, bool(args.trace))
    if args.trace:
        run = bench.traced_run(workload, inputs, args.seconds)
        metrics = bench.per_layer_metrics(run)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        bench.write_trace(path, env, run, metrics)
        attempted, failed = len(run["ops"]), run["failed"]
        if metrics["trace.replay_mismatches"][0]:
            bench.log("per-layer numbers do not mirror the pipeline (replay mismatch)")
    else:
        run = bench.timed_run(workload, inputs, args.seconds)
        setups = [setup_s]
        for _ in range(SETUP_PROBES):
            probe = run_child(
                child_args(args, args.workload, 0, "--setup-only"), CHILD_TIMEOUT
            )
            setups.append(probe["setup_s"])
        metrics = bench.end_to_end_metrics(run, statistics.median(setups))
        attempted, failed = len(run["times"]), run["failed"]
        env["calibration_samples_s"] = run["calibration"].samples
        env["calibration_scale"] = run["calibration"].scale()
        env["raw_model_s_p50"] = statistics.median(run["times"])
        if len(run["times"]) >= 100:  # at least ten samples beyond the p90
            env["raw_model_s_p90"] = statistics.quantiles(run["times"], n=10)[-1]
        env["setup_samples_s"] = setups
    env["operations"] = attempted
    print("environment " + json.dumps(env))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
