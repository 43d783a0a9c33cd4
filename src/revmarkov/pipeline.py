"""End-to-end nearest reversible sparse chain computation.

Steps: compute (or accept) a stationary vector, take the ergodic classes from
the chain's closed components (every other state is transient), solve one
reduced program per class, unscale, and reassemble with the transient rows
copied from the input.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain_analysis import _closed_components, _decompose, _mixture
from .exceptions import ClassSolveFailed, DimensionMismatch
from .qp_build import build_reduced_qp, unscale_solution
from .qp_solve import SolverOptions, solve_qp
from .reversibilize import mh_baseline_distance
from .sparse_core import (
    ProbabilityVector,
    SparseStochasticMatrix,
    SparsityPattern,
    detailed_balance_residual,
    frobenius_distance,
    stationarity_residual,
    stochasticity_residual,
    symmetrized_pattern,
)

__all__ = [
    "PipelineOptions",
    "ClassReport",
    "PipelineDiagnostics",
    "nearest_sparse_reversible",
    "verify",
]


@dataclass(frozen=True)
class PipelineOptions:
    """Knobs for :func:`nearest_sparse_reversible`.

    ``pi`` overrides the stationary vector, which is otherwise computed by
    :func:`~revmarkov.chain_analysis.stationary_mixture` from the uniform
    start; ``pattern`` overrides the admissible modification pattern
    (restricted per class); with ``recurse_ergodic`` off the union of the
    ergodic classes is treated as one block; ``solver`` holds the QP
    solver controls.
    """

    pi: Optional[ProbabilityVector] = None
    pattern: Optional[SparsityPattern] = None
    recurse_ergodic: bool = True
    solver: Optional[SolverOptions] = None


@dataclass(frozen=True)
class ClassReport:
    """Solve record for one ergodic class."""

    indices: np.ndarray
    y_m: int
    distance: float
    iterations: int
    kkt_residuals: tuple
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "indices": self.indices.tolist(),
            "size": int(self.indices.size),
            "y_m": int(self.y_m),
            "distance": float(self.distance),
            "iterations": int(self.iterations),
            "kkt_residuals": [float(r) for r in self.kkt_residuals],
            "wall_time": float(self.wall_time),
        }


@dataclass(frozen=True)
class PipelineDiagnostics:
    """Everything measured along one pipeline run."""

    num_classes: int
    transient: np.ndarray
    per_class: list
    distance: float
    delta_nnz: int
    nnz_input: int
    nnz_output: int
    residuals: tuple  # (stochasticity, detailed balance, stationarity)
    mh_distance: float
    stationary_seconds: float
    total_seconds: float

    def to_dict(self) -> dict:
        return {
            "schema": "revmarkov-diagnostics/1",
            "num_classes": int(self.num_classes),
            "transient": self.transient.tolist(),
            "per_class": [c.to_dict() for c in self.per_class],
            "distance": float(self.distance),
            "delta_nnz": int(self.delta_nnz),
            "nnz_input": int(self.nnz_input),
            "nnz_output": int(self.nnz_output),
            "residuals": {
                "stochasticity": float(self.residuals[0]),
                "detailed_balance": float(self.residuals[1]),
                "stationarity": float(self.residuals[2]),
            },
            "mh_distance": float(self.mh_distance),
            "timings": {
                "stationary_seconds": float(self.stationary_seconds),
                "total_seconds": float(self.total_seconds),
            },
        }

    def to_json(self, path=None):
        payload = json.dumps(self.to_dict(), indent=2)
        if path is None:
            return payload
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        return None


def verify(R, pi) -> tuple:
    """Residual triple ``(stochasticity, detailed balance, stationarity)``."""
    return (
        stochasticity_residual(R),
        detailed_balance_residual(R, pi),
        stationarity_residual(R, pi),
    )


def _solve_class(P, pi, members, pattern_override, solver_opts):
    start = time.perf_counter()
    block = P.submatrix(members)
    pi_block = pi.restrict(members)
    if pattern_override is not None:
        pattern = pattern_override.restrict(members)
    else:
        pattern = symmetrized_pattern(block)
    qp = build_reduced_qp(block, pi_block, pattern)
    result = solve_qp(qp, solver_opts)
    R_block = unscale_solution(result.y, qp.maps, qp.pi_hat)
    report = ClassReport(
        indices=np.asarray(members, dtype=np.intp),
        y_m=qp.y_m,
        distance=frobenius_distance(R_block, block),
        iterations=result.iterations,
        kkt_residuals=tuple(result.kkt_residuals),
        wall_time=time.perf_counter() - start,
    )
    return R_block, mh_baseline_distance(block, pi_block), report


def nearest_sparse_reversible(
    P: SparseStochasticMatrix, options: PipelineOptions | None = None
):
    """Nearest reversible chain sharing the stationary vector of ``P`` and
    confined to the symmetrized support (per ergodic class).

    Rows of transient states are copied from ``P`` unchanged: their
    detailed-balance equations hold trivially (zero stationary mass), so
    leaving them alone is free and keeps ``R`` stochastic.

    Parameters
    ----------
    P : SparseStochasticMatrix
        Row-stochastic input chain.
    options : PipelineOptions, optional
        Stationary-vector override, pattern override, per-class recursion
        flag, solver controls.

    Returns
    -------
    R : SparseStochasticMatrix
        The unique closest reversible chain for the induced constraints.
    diagnostics : PipelineDiagnostics
        Distances, residuals, per-class solver records, timings.

    Raises
    ------
    ClassSolveFailed
        When one or more class solves fail; every class is still attempted
        and the failures are aggregated.
    InconsistentSupport
        When the supplied (or computed) ``pi`` is not consistent with the
        transition structure.
    """
    options = options or PipelineOptions()
    t_start = time.perf_counter()

    # one SCC pass serves both the stationary solve and the decomposition
    closed, open_ = _closed_components(P)
    t_pi = time.perf_counter()
    if options.pi is not None:
        if options.pi.n != P.n:
            raise DimensionMismatch("dimensions of P and pi disagree")
        pi = options.pi
    else:
        pi = _mixture(P, np.full(P.n, 1.0 / P.n), closed, open_)
    stationary_seconds = time.perf_counter() - t_pi

    decomposition = _decompose(P, pi, closed)
    if options.recurse_ergodic:
        classes = decomposition.classes
    else:
        classes = [np.sort(np.concatenate(decomposition.classes))]
    transient = decomposition.transient

    solver_opts = options.solver or SolverOptions()
    results, failures = [], []
    for members in classes:
        try:
            results.append(
                _solve_class(P, pi, members, options.pattern, solver_opts)
            )
        except Exception as exc:  # aggregated below
            failures.append((members, exc))
    if failures:
        raise ClassSolveFailed(failures)

    # reassemble: transient rows verbatim, class blocks from the solves
    csr = P.csr
    rows, cols, vals = [], [], []
    if transient.size:
        coo = csr[transient].tocoo()
        rows.append(transient[coo.row])
        cols.append(coo.col)
        vals.append(coo.data)
    per_class = []
    for R_block, _, report in results:
        per_class.append(report)
        members = report.indices
        coo = R_block.csr.tocoo()
        rows.append(members[coo.row])
        cols.append(members[coo.col])
        vals.append(coo.data)
    R = SparseStochasticMatrix.from_coo(
        P.n,
        np.concatenate(rows) if rows else [],
        np.concatenate(cols) if cols else [],
        np.concatenate(vals) if vals else [],
        stochastic=True,
    )

    delta = (R.csr - csr).tocoo()
    keep_mask = np.abs(delta.data) > 1e-15
    distance = float(np.sqrt(np.sum(delta.data**2))) if delta.nnz else 0.0
    mh_distance = float(np.sqrt(sum(mh**2 for _, mh, _ in results)))
    diagnostics = PipelineDiagnostics(
        num_classes=len(classes),
        transient=np.asarray(transient, dtype=np.intp),
        per_class=per_class,
        distance=distance,
        delta_nnz=int(keep_mask.sum()),
        nnz_input=P.nnz,
        nnz_output=R.nnz,
        residuals=verify(R, pi),
        mh_distance=mh_distance,
        stationary_seconds=stationary_seconds,
        total_seconds=time.perf_counter() - t_start,
    )
    return R, diagnostics
