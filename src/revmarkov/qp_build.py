"""Assembly of the reduced nearest-reversible quadratic program.

The similarity scaling ``Y = D_s X D_s^{-1}`` with ``s = sqrt(pi)`` turns
"stochastic, reversible w.r.t. pi, pattern-confined" into "symmetric,
nonnegative, fixed eigenvector s, pattern-confined".  Collapsing the symmetric
matrix ``Y`` onto its upper-triangle entries inside the pattern leaves
``y_M = (s_M - n)/2 + n`` free variables and an equality system ``Y s = s``
with only ``n`` rows.  In these variables the objective
``1/2 || D_s^{-1} Y D_s - P ||_F^2`` has a *diagonal* positive-definite
Hessian:

* off-diagonal variable for position (i, j):  ``pi_i/pi_j + pi_j/pi_i``
* diagonal variable for position (i, i):      ``1``

because each variable feeds exactly the two vector slots (i,j) and (j,i) of
the scaled residual with weights ``s_j/s_i`` and ``s_i/s_j``.  The closed form
is validated against a dense Kronecker-product oracle in the test suite.

The program is assembled from a *pair table*: the variable positions with
``P_ij`` and ``P_ji`` beside each.  The pipeline builds that table straight
from the CSR arrays of each class; the public :func:`build_reduced_qp` and
:func:`unscale_solution` are thin wrappers that build it from their matrix
arguments and share the one assembly and the one unscaling with it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DimensionMismatch,
    LengthMismatch,
    NegativeEntry,
    NonPositivePi,
    RevMarkovError,
)
from .sparse_core import (
    STOCHASTIC_TOL,
    ProbabilityVector,
    SparseStochasticMatrix,
    SparsityPattern,
    _CSRArrays,
    _edge_rows,
    _pair_values,
    _pattern_positions,
    _scipy,
    _transpose,
)

__all__ = [
    "IndexMaps",
    "ReducedQP",
    "build_index_maps",
    "build_reduced_qp",
    "unscale_solution",
]

logger = logging.getLogger(__name__)

#: :func:`unscale_solution` clamps entries down to this much below zero.
NEGATIVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class IndexMaps:
    """Bijection between upper-triangle pattern positions and variable slots.

    ``upper_rows[k], upper_cols[k]`` is the position of variable ``k``;
    positions are ordered column-major then row, so the layout is
    deterministic.  ``y_m`` is the variable count ``(s_M - n)/2 + n``.
    """

    n: int
    upper_rows: np.ndarray
    upper_cols: np.ndarray

    def __post_init__(self):
        self.upper_rows.setflags(write=False)
        self.upper_cols.setflags(write=False)

    @property
    def y_m(self) -> int:
        return self.upper_rows.size

    @property
    def diagonal_mask(self) -> np.ndarray:
        return self.upper_rows == self.upper_cols


def build_index_maps(pattern: SparsityPattern) -> IndexMaps:
    """Variable indexing for the upper triangle of a symmetric pattern.

    Raises
    ------
    PatternNotSymmetric
        If the pattern is not symmetric.
    MissingDiagonal
        If some diagonal position is missing.
    """
    csr = pattern.csr
    rows, cols = _pattern_positions(pattern.n, _edge_rows(csr), csr.indices)
    return IndexMaps(n=pattern.n, upper_rows=rows, upper_cols=cols)


def _check_pi(pi: ProbabilityVector, n: int):
    if pi.n != n:
        raise DimensionMismatch("dimensions of pi and pattern disagree")
    missing = np.flatnonzero(pi.values <= 0.0)
    if missing.size:
        raise NonPositivePi(int(missing[0]))


@dataclass(frozen=True)
class ReducedQP:
    """Standard-form data of the reduced program.

    minimize   1/2 y^T Q y + c^T y
    subject to A_eq y = b_eq,  y >= 0

    ``hessian_diag`` is the diagonal of the (diagonal) Hessian.  Adding
    ``1/2 ||P||_F^2`` to the objective gives ``1/2 ||X - P||_F^2`` for the
    matrix ``X`` recovered from ``y`` by :func:`unscale_solution`.
    ``a_eq_t`` holds the CSR arrays of ``A_eq^T``, bit for bit and type for
    type those of ``a_eq.T.tocsr()``, on which the solver runs its products
    by ``A_eq^T``.
    """

    maps: IndexMaps
    hessian_diag: np.ndarray
    linear: np.ndarray
    a_eq: sp.csr_matrix
    a_eq_t: _CSRArrays
    b_eq: np.ndarray
    pi_hat: np.ndarray

    def __post_init__(self):
        for arr in (self.hessian_diag, self.linear, self.b_eq, self.pi_hat):
            arr.setflags(write=False)
        for matrix in (self.a_eq, self.a_eq_t):
            for buf in (matrix.data, matrix.indices, matrix.indptr):
                buf.setflags(write=False)

    @property
    def n(self) -> int:
        return self.maps.n

    @property
    def y_m(self) -> int:
        return self.maps.y_m


def build_reduced_qp(
    P: SparseStochasticMatrix, pi: ProbabilityVector, pattern: SparsityPattern
) -> ReducedQP:
    """Assemble the reduced program for one chain, one target distribution,
    and one symmetric full-diagonal pattern.

    ``P`` entries outside the pattern can never be matched, so they only
    shift the objective by a constant, which the program leaves out.
    """
    maps = build_index_maps(pattern)
    if P.n != pattern.n:
        raise DimensionMismatch("dimensions of P and pattern disagree")
    _check_pi(pi, pattern.n)
    csr = P.csr
    p_up, p_down, _ = _pair_values(
        maps.n, maps.upper_rows, maps.upper_cols, _edge_rows(csr), csr.indices, csr.data
    )
    return _assemble(maps, pi.values, p_up, p_down)


def _assemble(maps: IndexMaps, pi_vals, p_up, p_down) -> ReducedQP:
    """The reduced program on the pair table ``p_up = P_ij``,
    ``p_down = P_ji`` of the positions ``maps``, for a positive ``pi``."""
    pi_hat = np.sqrt(pi_vals)
    i, j = maps.upper_rows, maps.upper_cols
    diag = maps.diagonal_mask

    with np.errstate(over="ignore", divide="ignore"):  # refused below instead
        ratio = pi_vals[i] / pi_vals[j]
        hessian_diag = np.where(diag, 1.0, ratio + 1.0 / ratio)
        scale_up = pi_hat[j] / pi_hat[i]
        linear = np.where(diag, -p_up, -(p_up * scale_up + p_down / scale_up))
    if not (np.isfinite(hessian_diag).all() and np.isfinite(linear).all()):
        raise RevMarkovError(
            "the reduced QP left the double range: pi spans "
            f"{pi_vals.min():.3g} to {pi_vals.max():.3g}, so a Hessian ratio pi_i / pi_j overflows"
        )

    # column k of Y s = s holds s_j in row i and, off the diagonal, s_i in row j;
    # those CSC arrays of A are the CSR arrays of A^T, kept and transposed into CSR
    off = ~diag
    index = sp.get_index_dtype(maxval=2 * maps.y_m)  # at least the entries and the columns
    indptr = np.concatenate([[0], np.cumsum(1 + off)]).astype(index)
    first, second = indptr[:-1], indptr[:-1][off] + 1
    rows = np.empty(indptr[-1], dtype=index)
    vals = np.empty(indptr[-1])
    rows[first], vals[first] = i, pi_hat[j]
    rows[second], vals[second] = j[off], pi_hat[i[off]]
    a_eq_t = _CSRArrays(vals, rows, indptr, (maps.y_m, maps.n))

    return ReducedQP(
        maps=maps,
        hessian_diag=hessian_diag,
        linear=linear,
        a_eq=_scipy(_transpose(a_eq_t)),
        a_eq_t=a_eq_t,
        b_eq=pi_hat.copy(),
        pi_hat=pi_hat,
    )


def unscale_solution(
    y: np.ndarray, maps: IndexMaps, pi_hat: np.ndarray
) -> SparseStochasticMatrix:
    """Map a reduced solution back to a stochastic matrix.

    ``y`` must have ``maps.y_m`` entries and ``pi_hat`` ``maps.n``, or
    :class:`LengthMismatch` is raised.  Entries in
    ``[-NEGATIVE_TOLERANCE, 0)`` are clamped to zero; anything more
    negative raises :class:`NegativeEntry`.  Rows are renormalized only
    when the row-sum deviation exceeds ``sparse_core.STOCHASTIC_TOL``, the
    deviation the chain's constructor accepts, and that event is logged
    because it means the solver left visible slack.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != maps.y_m:
        raise LengthMismatch(f"expected length {maps.y_m}, got {y.size}")
    pi_hat = np.asarray(pi_hat, dtype=float).ravel()
    if pi_hat.size != maps.n:
        raise LengthMismatch(f"expected pi_hat of length {maps.n}, got {pi_hat.size}")
    r_up, r_down = _unscale(y, maps, pi_hat)
    i, j = maps.upper_rows, maps.upper_cols
    off = ~maps.diagonal_mask
    return SparseStochasticMatrix.from_coo(
        maps.n, np.r_[i, j[off]], np.r_[j, i[off]], np.r_[r_up, r_down[off]]
    )


def _unscale(y: np.ndarray, maps: IndexMaps, pi_hat: np.ndarray, tolerance: float = np.inf):
    """``R_ij`` and ``R_ji`` at each variable position ``(i, j)`` (both
    ``R_ii`` on the diagonal), with the clamp and renormalization of
    :func:`unscale_solution`.  A row-sum deviation above ``tolerance``
    raises :class:`~revmarkov.RevMarkovError` instead of being renormalized
    away."""
    worst = int(np.argmin(y)) if y.size else 0
    if y.size and y[worst] < -NEGATIVE_TOLERANCE:
        raise NegativeEntry(worst, float(y[worst]))
    y = np.maximum(y, 0.0)
    i, j = maps.upper_rows, maps.upper_cols
    r_up = y * pi_hat[j] / pi_hat[i]
    r_down = y * pi_hat[i] / pi_hat[j]

    off = ~maps.diagonal_mask
    row_sums = np.bincount(i, weights=r_up, minlength=maps.n)
    row_sums += np.bincount(j[off], weights=r_down[off], minlength=maps.n)
    deviation = float(np.abs(row_sums - 1.0).max()) if row_sums.size else 0.0
    if deviation > tolerance:
        raise RevMarkovError(
            f"unscaled rows miss a sum of 1 by {deviation:.3e} (> {tolerance:.0e}): "
            "the solution does not satisfy detailed balance once renormalized"
        )
    if deviation > STOCHASTIC_TOL:
        logger.warning(
            "renormalizing rows: row-sum deviation %.3e exceeds %.0e",
            deviation,
            STOCHASTIC_TOL,
        )
        inverse = 1.0 / row_sums
        r_up, r_down = r_up * inverse[i], r_down * inverse[j]
    return r_up, r_down
