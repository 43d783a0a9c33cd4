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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DimensionMismatch,
    LengthMismatch,
    MissingDiagonal,
    NegativeEntry,
    NonPositivePi,
    PatternNotSymmetric,
)
from .sparse_core import ProbabilityVector, SparseStochasticMatrix, SparsityPattern

__all__ = [
    "IndexMaps",
    "ReducedQP",
    "build_index_maps",
    "expand_symmetric",
    "build_reduced_qp",
    "unscale_solution",
]

logger = logging.getLogger(__name__)

#: :func:`unscale_solution` clamps entries down to this much below zero.
NEGATIVE_TOLERANCE = 1e-12
#: Row-sum deviation above which :func:`unscale_solution` renormalizes rows.
STOCHASTICITY_TOLERANCE = 1e-12


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
    if not pattern.symmetric:
        raise PatternNotSymmetric("reduction requires a symmetric pattern")
    if not pattern.has_full_diagonal:
        raise MissingDiagonal("reduction requires every diagonal position")
    rows, cols = pattern.triu_positions()
    expected = (pattern.size - pattern.n) // 2 + pattern.n
    assert rows.size == expected
    return IndexMaps(n=pattern.n, upper_rows=rows, upper_cols=cols)


def expand_symmetric(y: np.ndarray, maps: IndexMaps) -> sp.csr_matrix:
    """Symmetric matrix with upper-triangle entries ``y`` inside the pattern."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != maps.y_m:
        raise LengthMismatch(f"expected length {maps.y_m}, got {y.size}")
    off = ~maps.diagonal_mask
    rows = np.concatenate([maps.upper_rows, maps.upper_cols[off]])
    cols = np.concatenate([maps.upper_cols, maps.upper_rows[off]])
    vals = np.concatenate([y, y[off]])
    out = sp.coo_matrix((vals, (rows, cols)), shape=(maps.n, maps.n)).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


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

    ``hessian_diag`` is the diagonal of the (diagonal) Hessian; ``constant``
    is ``1/2 ||P||_F^2``, so the full objective value
    ``1/2 y^T Q y + c^T y + constant`` equals ``1/2 ||X - P||_F^2`` for the
    matrix ``X`` recovered from ``y`` by :func:`unscale_solution`.
    """

    maps: IndexMaps
    hessian_diag: np.ndarray
    linear: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    pi_hat: np.ndarray
    constant: float

    def __post_init__(self):
        for arr in (self.hessian_diag, self.linear, self.b_eq, self.pi_hat):
            arr.setflags(write=False)
        for buf in (self.a_eq.data, self.a_eq.indices, self.a_eq.indptr):
            buf.setflags(write=False)

    @property
    def n(self) -> int:
        return self.maps.n

    @property
    def y_m(self) -> int:
        return self.maps.y_m

    def objective(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float).ravel()
        value = 0.5 * float(y @ (self.hessian_diag * y)) + float(self.linear @ y)
        return value + self.constant


def build_reduced_qp(
    P: SparseStochasticMatrix, pi: ProbabilityVector, pattern: SparsityPattern
) -> ReducedQP:
    """Assemble the reduced program for one chain, one target distribution,
    and one symmetric full-diagonal pattern.

    ``P`` entries outside the pattern only shift the objective by a constant
    (they can never be matched), and that constant is part of ``constant``.
    """
    maps = build_index_maps(pattern)
    if P.n != pattern.n:
        raise DimensionMismatch("dimensions of P and pattern disagree")
    _check_pi(pi, pattern.n)

    pi_vals = pi.values
    pi_hat = pi.sqrt_values.copy()
    i, j = maps.upper_rows, maps.upper_cols
    diag = maps.diagonal_mask

    ratio = pi_vals[i] / pi_vals[j]
    hessian_diag = np.where(diag, 1.0, ratio + 1.0 / ratio)

    csr = P.csr
    p_up = np.asarray(csr[i, j]).ravel()
    p_down = np.asarray(csr[j, i]).ravel()
    scale_up = pi_hat[j] / pi_hat[i]
    linear = np.where(diag, -p_up, -(p_up * scale_up + p_down / scale_up))

    off = ~diag
    rows = np.concatenate([i, j[off]])
    cols = np.concatenate([np.arange(maps.y_m), np.flatnonzero(off)])
    vals = np.concatenate([np.where(diag, pi_hat[i], pi_hat[j]), pi_hat[i[off]]])
    a_eq = sp.coo_matrix((vals, (rows, cols)), shape=(maps.n, maps.y_m)).tocsr()

    constant = 0.5 * float(np.sum(csr.data**2))
    return ReducedQP(
        maps=maps,
        hessian_diag=hessian_diag,
        linear=linear,
        a_eq=a_eq,
        b_eq=pi_hat.copy(),
        pi_hat=pi_hat,
        constant=constant,
    )


def unscale_solution(
    y: np.ndarray, maps: IndexMaps, pi_hat: np.ndarray
) -> SparseStochasticMatrix:
    """Map a reduced solution back to a stochastic matrix.

    Entries in ``[-NEGATIVE_TOLERANCE, 0)`` are clamped to zero; anything
    more negative raises :class:`NegativeEntry`.  Rows are renormalized only
    when the row-sum deviation exceeds ``STOCHASTICITY_TOLERANCE``, and that
    event is logged because it means the solver left visible slack.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != maps.y_m:
        raise LengthMismatch(f"expected length {maps.y_m}, got {y.size}")
    worst = int(np.argmin(y)) if y.size else 0
    if y.size and y[worst] < -NEGATIVE_TOLERANCE:
        raise NegativeEntry(worst, float(y[worst]))
    y = np.maximum(y, 0.0)

    pi_hat = np.asarray(pi_hat, dtype=float).ravel()
    Y = expand_symmetric(y, maps).tocoo()
    r_vals = Y.data * pi_hat[Y.col] / pi_hat[Y.row]
    R = sp.coo_matrix((r_vals, (Y.row, Y.col)), shape=(maps.n, maps.n)).tocsr()

    row_sums = np.asarray(R.sum(axis=1)).ravel()
    deviation = float(np.abs(row_sums - 1.0).max()) if row_sums.size else 0.0
    if deviation > STOCHASTICITY_TOLERANCE:
        logger.warning(
            "renormalizing rows: row-sum deviation %.3e exceeds %.0e",
            deviation,
            STOCHASTICITY_TOLERANCE,
        )
        R = sp.diags(1.0 / row_sums) @ R
    return SparseStochasticMatrix(R, stochastic=True)
