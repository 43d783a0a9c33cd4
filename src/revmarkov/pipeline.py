"""End-to-end nearest reversible sparse chain computation.

Steps: compute (or accept) a stationary vector, take the ergodic classes from
the chain's closed components (every other state is transient), solve one
reduced program per class, unscale, and reassemble with the transient rows
copied from the input.

Each class is handled on one *pair table*: the class's entries are gathered
once from the CSR arrays of ``P`` by index arithmetic, the upper-triangle
positions of the admissible pattern are keyed ``j * m + i`` (the variable
order of :class:`~revmarkov.qp_build.IndexMaps`), and ``P_ij`` and ``P_ji``
are carried onto each position.  The reduced program, the unscaled entries of
``R``, the class distance and the Metropolis-Hastings baseline are all read
from that table, so the only chain object a call builds is the result, put
in row-major order by one sort of its entries.

The rest runs on arrays too: every sparse product runs SciPy's product
kernel on stored CSR arrays (see :func:`~revmarkov.sparse_core._csr_apply`),
a transpose's on a copy made by SciPy's conversion kernel.  So a call whose
classes the jump-chain sweep solves builds one SciPy matrix per class, the
equality matrix, and one for ``R``, which the chain stores without a copy.
A chain of one class that holds every state skips the gather and the
reassembly's transient rows: its block is the arrays of ``P`` itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from .chain_analysis import _closed_components, _decompose, _mixture
from .exceptions import ClassSolveFailed, DimensionMismatch, RevMarkovError
from .qp_build import IndexMaps, _assemble, _unscale
from .qp_solve import SolverOptions, solve_qp
from .reversibilize import _mh_squared_distance
from .sparse_core import (
    ProbabilityVector,
    SparseStochasticMatrix,
    SparsityPattern,
    _edge_rows,
    _gather,
    _pair_table,
    _pattern_table,
    _row_edges,
    _row_major,
    _scipy,
    detailed_balance_residual,
    stationarity_residual,
    stochasticity_residual,
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
    start; ``pattern`` overrides the admissible modification pattern (it
    must be ``n x n`` like the chain, else
    :class:`~revmarkov.DimensionMismatch` is raised, and is restricted per
    class); with ``recurse_ergodic`` off the union of the ergodic classes is
    treated as one block; ``solver`` holds the QP solver controls.
    """

    pi: Optional[ProbabilityVector] = None
    pattern: Optional[SparsityPattern] = None
    recurse_ergodic: bool = True
    solver: Optional[SolverOptions] = None


@dataclass(frozen=True)
class ClassReport:
    """Solve record for one ergodic class.

    ``iterations`` counts Newton steps, ``cg_iterations`` the conjugate
    gradient iterations over all of them, and ``factor_steps`` the Newton
    systems handed to the sparse factor.
    """

    indices: np.ndarray
    y_m: int
    distance: float
    iterations: int
    cg_iterations: int
    factor_steps: int
    kkt_residuals: tuple
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "indices": self.indices.tolist(),
            "size": int(self.indices.size),
            "y_m": int(self.y_m),
            "distance": float(self.distance),
            "iterations": int(self.iterations),
            "cg_iterations": int(self.cg_iterations),
            "factor_steps": int(self.factor_steps),
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


def verify(R, pi) -> tuple:
    """Residual triple ``(stochasticity, detailed balance, stationarity)``.

    Each residual is absolute, so the detailed-balance one cannot see a
    violation between states of tiny stationary mass (see
    :func:`~revmarkov.sparse_core.detailed_balance_residual`).  A result of
    :func:`nearest_sparse_reversible` is guarded against that case by the
    unscaling step, which refuses a class whose unscaled rows miss a sum of
    1 by more than the KKT tolerance instead of renormalizing them.
    """
    return (
        stochasticity_residual(R),
        detailed_balance_residual(R, pi),
        stationarity_residual(R, pi),
    )


def _solve_pair_table(pi, members, block, pattern, solver_opts):
    """Nearest reversible block of one class, read off the pair table of its
    gathered entries ``block``.

    Returns the block's entries of ``R`` in global indices, its squared
    distances to ``P`` and to the Metropolis-Hastings adjustment, the number
    of its entries that moved, and the class report.
    """
    start = time.perf_counter()
    m = members.size
    rows, cols, vals = block
    # the baseline keeps to the support of P, and so does the program unless
    # a pattern is given
    support = _pair_table(m, rows, cols, vals)
    if pattern is None:
        i, j, p_up, p_down = support
        outside = vals[:0]
    else:
        pattern_rows, pattern_cols, _ = _gather(pattern.csr, members)
        i, j, p_up, p_down, outside = _pattern_table(m, pattern_rows, pattern_cols, rows, cols, vals)
    pi_class = pi.values[members]
    pi_class = pi_class / pi_class.sum()
    maps = IndexMaps(n=m, upper_rows=i, upper_cols=j)
    qp = _assemble(maps, pi_class, p_up, p_down)
    solver_opts = solver_opts or SolverOptions()
    result = solve_qp(qp, solver_opts)
    # a renormalization beyond the solver's tolerance would break detailed
    # balance by as much, so such a class is refused
    r_up, r_down = _unscale(result.y, maps, qp.pi_hat, solver_opts.kkt_tolerance)

    off = ~maps.diagonal_mask
    moved = np.concatenate([r_up - p_up, (r_down - p_down)[off], outside])
    squared = float(np.sum(moved**2))
    report = ClassReport(
        indices=np.asarray(members, dtype=np.intp),
        y_m=qp.y_m,
        distance=float(np.sqrt(squared)),
        iterations=result.iterations,
        cg_iterations=result.cg_iterations,
        factor_steps=result.factor_steps,
        kkt_residuals=tuple(result.kkt_residuals),
        wall_time=time.perf_counter() - start,
    )
    entries = (
        members[np.concatenate([i, j[off]])],
        members[np.concatenate([j, i[off]])],
        np.concatenate([r_up, r_down[off]]),
    )
    return (
        entries,
        squared,
        _mh_squared_distance(*support, pi_class),
        int(np.count_nonzero(np.abs(moved) > 1e-15)),
        report,
    )


def nearest_sparse_reversible(
    P: SparseStochasticMatrix, options: PipelineOptions | None = None
):
    """Nearest reversible chain sharing the stationary vector of ``P`` and
    confined to the symmetrized support (per ergodic class).

    Rows of transient states are copied from ``P`` unchanged: their
    detailed-balance equations hold trivially (zero stationary mass), so
    leaving them alone is free and keeps ``R`` stochastic.

    Each class is solved on its pair table (see the module docstring), with
    the positions of ``options.pattern`` restricted to the class when one is
    given.  The results are those of the public calls
    :meth:`~revmarkov.SparseStochasticMatrix.submatrix`,
    :func:`~revmarkov.symmetrized_pattern`,
    :func:`~revmarkov.build_reduced_qp`, :func:`~revmarkov.solve_qp`,
    :func:`~revmarkov.unscale_solution` and
    :func:`~revmarkov.mh_baseline_distance` made class by class, but the
    only chain object built is ``R``, canonicalized once.

    Parameters
    ----------
    P : SparseStochasticMatrix
        Row-stochastic input chain.
    options : PipelineOptions, optional
        Stationary-vector override, pattern override, per-class recursion
        flag, solver controls.  Both overrides must have the size ``n`` of
        ``P``.

    Returns
    -------
    R : SparseStochasticMatrix
        The unique closest reversible chain for the induced constraints.
    diagnostics : PipelineDiagnostics
        Distances, residuals, per-class solver records, timings.

    Raises
    ------
    DimensionMismatch
        When ``options.pi`` or ``options.pattern`` does not have the size of
        ``P``; raised before any class is solved.
    ClassSolveFailed
        When one or more class solves raise a :class:`~revmarkov.RevMarkovError`;
        every class is still attempted and those errors are aggregated.  Any
        other exception of a class solve propagates unchanged.
    InconsistentSupport
        When the supplied (or computed) ``pi`` is not consistent with the
        transition structure.
    StationaryUnderflow
        When the computed ``pi`` underflows to zero on a class state.
    """
    options = options or PipelineOptions()
    t_start = time.perf_counter()
    if options.pattern is not None and options.pattern.n != P.n:
        raise DimensionMismatch("dimensions of P and pattern disagree")

    # one SCC pass serves both the stationary solve and the decomposition,
    # and one gather per closed class serves both its stationary solve and
    # its pair table
    closed, transient = _closed_components(P)
    csr = P.csr
    if len(closed) == 1 and not transient.size:
        # the one class is every state in order, so its block is P itself
        blocks = [(_edge_rows(csr), csr.indices, csr.data)]
    else:
        blocks = [_gather(csr, members) for members in closed]
    t_pi = time.perf_counter()
    if options.pi is not None:
        if options.pi.n != P.n:
            raise DimensionMismatch("dimensions of P and pi disagree")
        pi = options.pi
    else:
        pi = _mixture(P, closed, transient, blocks)
    stationary_seconds = time.perf_counter() - t_pi

    decomposition, is_class = _decompose(P, pi, closed)
    classes, transient = decomposition.classes, decomposition.transient
    blocks = list(compress(blocks, is_class))
    if not options.recurse_ergodic:
        classes = [np.sort(np.concatenate(classes))]
        blocks = [_gather(csr, classes[0])]

    solved, failures = [], []
    for members, block in zip(classes, blocks):
        try:
            solved.append(_solve_pair_table(pi, members, block, options.pattern, options.solver))
        except RevMarkovError as exc:  # aggregated below; other faults propagate
            failures.append((members, exc))
    if failures:
        raise ClassSolveFailed(failures)

    # reassemble: transient rows verbatim, class blocks from the pair tables,
    # all distinct positions, put in row-major order by one sort
    entries, squared, mh_squared, moved, reports = zip(*solved)
    parts = list(entries)
    if transient.size:
        edges, owner = _row_edges(csr, transient)
        parts.append((transient[owner], csr.indices[edges], csr.data[edges]))
    rows, cols, vals = map(np.concatenate, zip(*parts))
    stored = np.flatnonzero(vals)
    order = stored[np.argsort(rows[stored] * P.n + cols[stored])]
    R = SparseStochasticMatrix._adopt(_scipy(_row_major(vals[order], rows[order], cols[order], P.n)))

    diagnostics = PipelineDiagnostics(
        num_classes=len(classes),
        transient=transient,
        per_class=list(reports),
        distance=float(np.sqrt(sum(squared))),
        delta_nnz=sum(moved),
        nnz_input=P.nnz,
        nnz_output=R.nnz,
        residuals=verify(R, pi),
        mh_distance=float(np.sqrt(sum(mh_squared))),
        stationary_seconds=stationary_seconds,
        total_seconds=time.perf_counter() - t_start,
    )
    return R, diagnostics
