"""Closed-form Metropolis-Hastings reversibilization of a proposal chain.

Given a proposal matrix ``Q`` and a target distribution ``pi``, the adjusted
chain ``T_ij = Q_ij * alpha_ij`` (off-diagonal) with the acceptance
probability ``alpha_ij = min(1, pi_j Q_ji / (pi_i Q_ij))`` and the diagonal
absorbing the rejected mass satisfies detailed balance with respect to
``pi``.

Whenever an edge is not reciprocated (``Q_ij > 0`` but ``Q_ji = 0``) detailed
balance forces ``T_ij = 0``, so the adjustment keeps only the largest
symmetric subgraph of the proposal support, plus the diagonal.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, NonPositivePi
from .sparse_core import STOCHASTIC_TOL, ProbabilityVector, SparseStochasticMatrix, _edge_rows, _pair_table

__all__ = [
    "reversibilize",
    "mh_baseline_distance",
]


def reversibilize(Q: SparseStochasticMatrix, pi: ProbabilityVector) -> SparseStochasticMatrix:
    """The Metropolis-Hastings adjustment of a proposal chain toward ``pi``.

    The off-diagonal entries are computed from pairwise fluxes
    ``f_ij = pi_i Q_ij``: the adjustment keeps ``min(f_ij, f_ji)`` of the
    flux, a symmetric function of the pair, so the result satisfies the
    balance equations to roundoff.  Diagonal entries are then set to the
    exact complement ``1 - sum_(j != i) T_ij``, clamped at zero when the
    complement undershoots by no more than the row-sum tolerance
    ``STOCHASTIC_TOL`` of ``SparseStochasticMatrix``.

    Raises
    ------
    NonPositivePi
        If some state with an outgoing off-diagonal proposal has zero mass.
    DimensionMismatch
        If ``Q`` and ``pi`` sizes disagree.
    """
    if Q.n != pi.n:
        raise DimensionMismatch("dimensions of Q and pi disagree")
    csr = Q.csr
    i, j, q_up, q_down = _pair_table(Q.n, _edge_rows(csr), csr.indices, csr.data)
    t_up, t_down, t_diag = _adjust(i, j, q_up, q_down, pi.values)
    # the constructor drops the zeros of one-way edges and canonicalizes once
    off = i != j
    states = np.arange(Q.n)
    return SparseStochasticMatrix.from_coo(
        Q.n,
        np.r_[i[off], j[off], states],
        np.r_[j[off], i[off], states],
        np.r_[t_up[off], t_down[off], t_diag],
    )


def mh_baseline_distance(P: SparseStochasticMatrix, pi: ProbabilityVector) -> float:
    """Frobenius distance from ``P`` to its Metropolis-Hastings adjustment
    toward ``pi``.

    To measure how far the closed-form adjustment moves an estimated chain,
    pass the chain's own stationary vector, as the pipeline does.
    """
    if P.n != pi.n:
        raise DimensionMismatch("dimensions of P and pi disagree")
    csr = P.csr
    table = _pair_table(P.n, _edge_rows(csr), csr.indices, csr.data)
    return float(np.sqrt(_mh_squared_distance(*table, pi.values)))


def _adjust(i, j, p_up, p_down, pi_vals):
    """The adjusted chain on a pair table with the full diagonal: ``T_ij`` and
    ``T_ji`` at each upper position ``(i, j)`` (zero on the diagonal, where
    ``p_down`` is zero) and the diagonal complement of every state."""
    moves = np.concatenate([i[(i != j) & (p_up > 0.0)], j[p_down > 0.0]])
    bad = moves[pi_vals[moves] <= 0.0]
    if bad.size:
        raise NonPositivePi(int(bad.min()))

    f_up, f_down = pi_vals[i] * p_up, pi_vals[j] * p_down
    kept_flux = np.minimum(f_up, f_down)

    # positive kept flux means both states have mass, so no 0/0 is formed
    t_up, t_down = (
        np.divide(kept_flux, pi_vals[k], out=np.zeros_like(kept_flux), where=kept_flux > 0.0)
        for k in (i, j)
    )
    n = pi_vals.size
    diag = 1.0 - np.bincount(i, weights=t_up, minlength=n) - np.bincount(j, weights=t_down, minlength=n)
    undershoot = diag.min()
    if undershoot < -STOCHASTIC_TOL:
        raise ValueError(
            f"off-diagonal mass exceeds 1 by {-undershoot:.3e}; proposal is invalid"
        )
    return t_up, t_down, np.maximum(diag, 0.0)


def _mh_squared_distance(i, j, p_up, p_down, pi_vals) -> float:
    """Squared Frobenius distance from the chain of a pair table to its
    Metropolis-Hastings adjustment."""
    t_up, t_down, t_diag = _adjust(i, j, p_up, p_down, pi_vals)
    on_diagonal = i == j
    t_up = np.where(on_diagonal, t_diag[i], t_up)
    return float(np.sum((t_up - p_up) ** 2) + np.sum((t_down - p_down) ** 2))
