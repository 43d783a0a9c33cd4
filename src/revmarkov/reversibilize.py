"""Closed-form reversibilization of a proposal chain by an acceptance rule.

Given a proposal matrix ``Q`` and a target distribution ``pi``, the adjusted
chain ``T_ij = Q_ij * alpha_ij`` (off-diagonal) with the diagonal absorbing
the rejected mass satisfies detailed balance with respect to ``pi``.  Two
classical acceptance rules are provided:

* Metropolis-Hastings: ``alpha_ij = min(1, pi_j Q_ji / (pi_i Q_ij))``
* Barker:              ``alpha_ij = pi_j Q_ji / (pi_i Q_ij + pi_j Q_ji)``

Whenever an edge is not reciprocated (``Q_ij > 0`` but ``Q_ji = 0``) detailed
balance forces ``T_ij = 0``, so both rules keep only the largest symmetric
subgraph of the proposal support, plus the diagonal.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
import scipy.sparse as sp

from .chain_analysis import _edge_rows, stationary_mixture
from .exceptions import DimensionMismatch, NonPositivePi, ZeroRow
from .sparse_core import (
    ProbabilityVector,
    SparseStochasticMatrix,
    SparsityPattern,
    frobenius_distance,
)

__all__ = [
    "AcceptanceRule",
    "proposal_from_pattern",
    "reversibilize",
    "mh_baseline_distance",
]

#: Row sums that overshoot 1 by at most this much are absorbed into a zero diagonal.
DIAGONAL_CLAMP_TOL = 1e-14


class AcceptanceRule(Enum):
    """Acceptance probability family used to enforce detailed balance."""

    METROPOLIS_HASTINGS = "metropolis-hastings"
    BARKER = "barker"


def proposal_from_pattern(pattern: SparsityPattern) -> SparseStochasticMatrix:
    """Uniform random-walk proposal on a pattern: each admissible move from a
    state gets probability one over the state's degree.

    Raises
    ------
    ZeroRow
        If some state has no admissible move at all.
    """
    degrees = pattern.row_degrees()
    empty = np.flatnonzero(degrees == 0)
    if empty.size:
        raise ZeroRow(int(empty[0]))
    csr = pattern.csr
    data = np.repeat(1.0 / degrees, degrees)
    Q = sp.csr_matrix((data, csr.indices.copy(), csr.indptr.copy()), shape=csr.shape)
    return SparseStochasticMatrix(Q, stochastic=True)


def reversibilize(
    Q: SparseStochasticMatrix,
    pi: ProbabilityVector,
    rule: AcceptanceRule = AcceptanceRule.METROPOLIS_HASTINGS,
) -> SparseStochasticMatrix:
    """Adjust a proposal chain so it satisfies detailed balance with ``pi``.

    The off-diagonal entries are computed from pairwise fluxes
    ``f_ij = pi_i Q_ij``: Metropolis-Hastings keeps ``min(f_ij, f_ji)`` of the
    flux, Barker keeps the harmonic share ``f_ij f_ji / (f_ij + f_ji)``.  Either
    way the kept flux is a symmetric function of the pair, so the result
    satisfies the balance equations to roundoff.  Diagonal entries are then
    set to the exact complement ``1 - sum_(j != i) T_ij`` (clamped at zero when
    the complement undershoots by less than ``1e-14``).

    Raises
    ------
    NonPositivePi
        If some state with an outgoing off-diagonal proposal has zero mass.
    DimensionMismatch
        If ``Q`` and ``pi`` sizes disagree.
    """
    if Q.n != pi.n:
        raise DimensionMismatch("dimensions of Q and pi disagree")
    n = Q.n
    csr = Q.csr
    rows = _edge_rows(csr)
    off = rows != csr.indices
    rows, cols, q_vals = rows[off], csr.indices[off], csr.data[off]

    pi_vals = pi.values
    bad = np.unique(rows[pi_vals[rows] <= 0.0])
    if bad.size:
        raise NonPositivePi(int(bad[0]))

    # align each edge with its reciprocal (0 when absent); the entries of a
    # canonical csr are sorted by (row, col), so the keys are sorted too
    keys = rows.astype(np.int64) * n + cols
    wanted = cols.astype(np.int64) * n + rows
    slot = np.searchsorted(keys, wanted)
    slot[slot >= keys.size] = 0
    found = keys[slot] == wanted
    q_back = np.where(found, q_vals[slot], 0.0)

    f_fwd = pi_vals[rows] * q_vals
    f_back = pi_vals[cols] * q_back
    if rule is AcceptanceRule.METROPOLIS_HASTINGS:
        kept_flux = np.minimum(f_fwd, f_back)
    elif rule is AcceptanceRule.BARKER:
        total = f_fwd + f_back
        with np.errstate(invalid="ignore", divide="ignore"):
            kept_flux = np.where(total > 0.0, f_fwd * f_back / np.where(total > 0, total, 1.0), 0.0)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown acceptance rule {rule!r}")

    t_vals = kept_flux / pi_vals[rows]
    diag = 1.0 - np.bincount(rows, weights=t_vals, minlength=n)
    undershoot = diag.min() if n else 0.0
    if undershoot < -DIAGONAL_CLAMP_TOL:
        raise ValueError(
            f"off-diagonal mass exceeds 1 by {-undershoot:.3e}; proposal is invalid"
        )
    # one COO of the kept flux and the diagonal complement; the constructor
    # drops the zeros of one-way edges and canonicalizes it once
    states = np.arange(n)
    T = sp.coo_matrix(
        (np.r_[t_vals, np.maximum(diag, 0.0)], (np.r_[rows, states], np.r_[cols, states])),
        shape=(n, n),
    )
    return SparseStochasticMatrix(T, stochastic=True)


def mh_baseline_distance(
    P: SparseStochasticMatrix, pi: ProbabilityVector | None = None
) -> float:
    """Frobenius distance from ``P`` to its Metropolis-Hastings adjustment.

    ``pi`` defaults to the stationary distribution of ``P`` itself, which is
    the relevant target when measuring how far the closed-form adjustment
    moves an estimated chain.
    """
    if pi is None:
        pi = stationary_mixture(P)
    adjusted = reversibilize(P, pi, AcceptanceRule.METROPOLIS_HASTINGS)
    return frobenius_distance(adjusted, P)
