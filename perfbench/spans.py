"""Spans around the program's public calls, and a replay of the pipeline.

The traced run does not instrument the program.  It calls
``nearest_sparse_reversible`` once untraced, then replays the same public
calls in the pipeline's order on the same input, each inside a span.  The
pipeline's own self time is therefore an estimate: the untraced call minus
the replayed calls.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from revmarkov import (
    SparseStochasticMatrix,
    build_reduced_qp,
    ergodic_decomposition,
    frobenius_distance,
    mh_baseline_distance,
    solve_qp,
    stationary_mixture,
    symmetrized_pattern,
    unscale_solution,
    verify,
)

#: Program modules the benchmark times; ``io`` and ``cli`` are not on the
#: library path.
LAYERS = (
    "chain_analysis",
    "sparse_core",
    "qp_build",
    "qp_solve",
    "reversibilize",
    "pipeline",
    "experiments",
)

#: Per-layer time metric -> the public call whose self time it sums.
CALL_METRICS = {
    "chain_analysis.stationary_s": "chain_analysis.stationary_mixture",
    "chain_analysis.decompose_s": "chain_analysis.ergodic_decomposition",
    "sparse_core.pattern_s": "sparse_core.symmetrized_pattern",
    "qp_build.build_s": "qp_build.build_reduced_qp",
    "qp_build.unscale_s": "qp_build.unscale_solution",
    "qp_solve.solve_s": "qp_solve.solve_qp",
    "reversibilize.mh_s": "reversibilize.mh_baseline_distance",
    "pipeline.verify_s": "pipeline.verify",
    "experiments.langevin_s": "experiments.langevin_trajectory",
    "experiments.count_s": "experiments.count_matrix",
}

#: Span counters summed per operation.
COUNT_METRICS = {
    "qp_solve.iterations": "iterations",
    "qp_solve.normal_nnz": "normal_nnz",
    "qp_build.y_m": "y_m",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name, **counts):
        record = Span(
            name,
            time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
            op=self.op,
            counts=counts,
        )
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part covered by its children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> list:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "failed": s.failed,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


def replay_pipeline(P: SparseStochasticMatrix, span):
    """The public calls of ``nearest_sparse_reversible(P)`` in its order.

    Returns the reassembled chain, the stationary vector and the distance,
    which must match the pipeline's own.
    """
    with span("chain_analysis.stationary_mixture"):
        pi = stationary_mixture(P)
    with span("chain_analysis.ergodic_decomposition"):
        decomposition = ergodic_decomposition(P, pi)
    rows, cols, vals = [], [], []
    transient = decomposition.transient
    if transient.size:
        coo = P.csr[transient].tocoo()
        rows.append(transient[coo.row])
        cols.append(coo.col)
        vals.append(coo.data)
    for members in decomposition.classes:
        with span("sparse_core.submatrix"):
            block = P.submatrix(members, stochastic=True)
            pi_block = pi.restrict(members)
        with span("sparse_core.symmetrized_pattern"):
            pattern = symmetrized_pattern(block)
        with span("qp_build.build_reduced_qp"):
            qp = build_reduced_qp(block, pi_block, pattern)
        normal_nnz = (qp.a_eq @ qp.a_eq.T).nnz
        with span("qp_solve.solve_qp", y_m=qp.y_m, normal_nnz=normal_nnz) as s:
            result = solve_qp(qp)
            s.counts["iterations"] = result.iterations
        with span("qp_build.unscale_solution"):
            R_block = unscale_solution(result.y, qp.maps, qp.pi_hat)
        with span("sparse_core.frobenius_distance"):
            frobenius_distance(R_block, block)
        coo = R_block.csr.tocoo()
        rows.append(members[coo.row])
        cols.append(members[coo.col])
        vals.append(coo.data)
    R = SparseStochasticMatrix.from_coo(
        P.n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    with span("sparse_core.frobenius_distance"):
        distance = frobenius_distance(R, P)
    for members in decomposition.classes:
        with span("sparse_core.submatrix"):
            block = P.submatrix(members, stochastic=True)
            pi_block = pi.restrict(members)
        with span("reversibilize.mh_baseline_distance"):
            mh_baseline_distance(block, pi_block)
    with span("pipeline.verify"):
        verify(R, pi)
    return R, pi, distance


def _peak_alloc(fn, *args):
    """``(peak MB traced by tracemalloc, result)`` of ``fn(*args)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20, result
    finally:
        tracemalloc.stop()


def alloc_pass(P: SparseStochasticMatrix):
    """Peak traced allocation of the stationary solve and of the largest
    class's QP solve, measured apart from the timed replay."""
    stationary_mb, pi = _peak_alloc(stationary_mixture, P)
    solve_mb = 0.0
    for members in ergodic_decomposition(P, pi).classes:
        block = P.submatrix(members, stochastic=True)
        pattern = symmetrized_pattern(block)
        qp = build_reduced_qp(block, pi.restrict(members), pattern)
        solve_mb = max(solve_mb, _peak_alloc(solve_qp, qp)[0])
    return stationary_mb, solve_mb
