"""Command line interface.

Subcommands: ``nearest`` (full pipeline), ``mh`` (Metropolis-Hastings
baseline), ``check`` (reversibility diagnostics), ``bench`` (random-chain
ensemble), ``langevin`` (trajectory to count matrix).

Exit codes: 0 success, 1 I/O or solver error, 2 constraint-verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import io
from .chain_analysis import kolmogorov_cycle_check, stationary_mixture
from .exceptions import RevMarkovError
from .experiments import BenchmarkConfig, LangevinConfig, count_matrix, langevin_trajectory, run_benchmark
from .pipeline import PipelineOptions, nearest_sparse_reversible
from .qp_solve import SolverOptions
from .reversibilize import reversibilize
from .sparse_core import (
    detailed_balance_residual,
    frobenius_distance,
    stochasticity_residual,
)

VERIFY_TOLERANCE = 1e-10


def _cmd_nearest(args) -> int:
    if args.normalize:
        from .sparse_core import row_normalize

        P = row_normalize(io.read_matrix(args.matrix, stochastic=False))
    else:
        P = io.read_matrix(args.matrix)
    pi = io.read_probability_vector(args.pi) if args.pi else None
    pattern = io.read_pattern(args.pattern) if args.pattern else None
    solver = _config(SolverOptions, args)
    options = PipelineOptions(
        pi=pi, pattern=pattern, recurse_ergodic=not args.no_recurse, solver=solver
    )
    R, diag = nearest_sparse_reversible(P, options)
    print(f"states: {P.n}   classes: {diag.num_classes}   transient: {diag.transient.size}")
    print(f"nnz(P) = {diag.nnz_input}   nnz(R) = {diag.nnz_output}")
    print(f"|Delta|_F = {diag.distance:.6e}   MH baseline = {diag.mh_distance:.6e}")
    print(
        "residuals: stochasticity {0:.3e}, detailed balance {1:.3e}, stationarity {2:.3e}".format(
            *diag.residuals
        )
    )
    print(f"time: {diag.total_seconds:.3f} s")
    if args.out:
        io.write_matrix(args.out, R)
    if args.diag:
        with open(args.diag, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(diag.to_dict(), indent=2))
    if max(diag.residuals) > VERIFY_TOLERANCE:
        print(f"verification FAILED: residuals exceed {VERIFY_TOLERANCE:.0e}", file=sys.stderr)
        return 2
    return 0


def _cmd_mh(args) -> int:
    P = io.read_matrix(args.matrix)
    pi = io.read_probability_vector(args.pi) if args.pi else stationary_mixture(P)
    T = reversibilize(P, pi)
    print(f"distance |T - P|_F = {frobenius_distance(T, P):.6e}")
    db = detailed_balance_residual(T, pi)
    print(f"detailed balance residual = {db:.3e}")
    if args.out:
        io.write_matrix(args.out, T)
    if db > VERIFY_TOLERANCE:
        print("verification FAILED: adjusted chain is not balanced", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args) -> int:
    P = io.read_matrix(args.matrix)
    pi = io.read_probability_vector(args.pi)
    stoch = stochasticity_residual(P)
    db = detailed_balance_residual(P, pi)
    cycle_result = kolmogorov_cycle_check(P)
    print(f"stochasticity residual   = {stoch:.3e}")
    print(f"detailed balance residual = {db:.3e}")
    if cycle_result.passed:
        print("cycle condition: holds on every cycle")
    else:
        cyc = " -> ".join(str(v + 1) for v in cycle_result.cycle)
        print(
            f"cycle condition VIOLATED on {cyc} -> {cycle_result.cycle[0] + 1}: "
            f"forward {cycle_result.forward_product:.6e} vs reverse {cycle_result.reverse_product:.6e}, "
            f"log-sum {cycle_result.log_sum:.6g}"
        )
    ok = stoch <= VERIFY_TOLERANCE and db <= VERIFY_TOLERANCE and cycle_result.passed
    return 0 if ok else 2


def _cmd_bench(args) -> int:
    rows = run_benchmark(_config(BenchmarkConfig, args), output_path=args.out)
    good = [r for r in rows if "error" not in r]
    bad = [r for r in rows if "error" in r]
    print(f"cases: {len(good)} ok, {len(bad)} failed")
    for r in bad:
        print(f"case {r['case']}: {r['error']}", file=sys.stderr)
    if good:
        dist = np.array([r["distance"] for r in good])
        mh = np.array([r["mh_distance"] for r in good])
        worst = max(
            max(
                r["residual_stochasticity"],
                r["residual_detailed_balance"],
                r["residual_stationarity"],
            )
            for r in good
        )
        print(f"|Delta|_F:  median {np.median(dist):.3f}  range [{dist.min():.3f}, {dist.max():.3f}]")
        print(f"MH distance: median {np.median(mh):.3f}  range [{mh.min():.3f}, {mh.max():.3f}]")
        print(f"worst residual: {worst:.3e}")
        print(f"dominance holds: {bool(np.all(dist <= mh))}")
    if args.out:
        print(f"report written to {args.out}")
    return 0 if not bad else 1


def _cmd_langevin(args) -> int:
    cfg = _config(LangevinConfig, args)
    bins = langevin_trajectory(cfg)
    counts = count_matrix(bins, cfg.bins)
    print(f"steps: {cfg.steps}   bins: {cfg.bins}   count nnz: {counts.nnz}")
    if args.out:
        io.write_matrix(args.out, counts)
        print(f"count matrix written to {args.out}")
    return 0


def _add_field(parser, flag, config, name, **kwargs):
    """Add ``flag`` for the field ``name`` of the dataclass ``config``, whose
    default value (and its type) the flag takes."""
    default = getattr(config, name)
    parser.add_argument(flag, dest=name, type=type(default), default=default, **kwargs)


def _config(config, args):
    """The dataclass ``config`` with the parsed values of its fields' flags."""
    names = {f.name for f in dataclasses.fields(config)}
    return config(**{name: value for name, value in vars(args).items() if name in names})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revmarkov",
        description="Nearest reversible sparse Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nearest", help="nearest reversible chain by quadratic programming")
    p.add_argument("matrix", help="row-stochastic matrix (Matrix Market)")
    p.add_argument("--pi", help="stationary vector file (one value per line)")
    p.add_argument("--pattern", help="admissible pattern (Matrix Market; support is used)")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="row-normalize the input first (e.g. a count matrix from `langevin`)",
    )
    p.add_argument("--no-recurse", action="store_true", help="skip the per-class split")
    _add_field(p, "--tol", SolverOptions, "kkt_tolerance", help="KKT tolerance")
    _add_field(p, "--max-iterations", SolverOptions, "max_iterations")
    p.add_argument("--out", help="write the reversible matrix here (Matrix Market)")
    p.add_argument("--diag", help="write diagnostics JSON here")
    p.set_defaults(func=_cmd_nearest)

    p = sub.add_parser("mh", help="Metropolis-Hastings reversibilization baseline")
    p.add_argument("matrix")
    p.add_argument("--pi", help="target distribution (default: stationary of the input)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mh)

    p = sub.add_parser("check", help="reversibility diagnostics for a chain")
    p.add_argument("matrix")
    p.add_argument("--pi", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bench", help="random sparse chain ensemble")
    _add_field(p, "--n", BenchmarkConfig, "num_cases", help="number of cases")
    _add_field(p, "--nmin", BenchmarkConfig, "n_min")
    _add_field(p, "--nmax", BenchmarkConfig, "n_max")
    _add_field(p, "--alpha", BenchmarkConfig, "alpha")
    _add_field(p, "--seed", BenchmarkConfig, "seed")
    p.add_argument("--out", help="CSV (or .json) report path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("langevin", help="simulate the torsion dynamics and emit counts")
    for name in ("steps", "bins", "dt", "sigma", "seed", "a", "b", "c", "d"):
        _add_field(p, f"--{name}", LangevinConfig, name)
    p.add_argument("--out", help="count matrix path (Matrix Market)")
    p.set_defaults(func=_cmd_langevin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RevMarkovError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
