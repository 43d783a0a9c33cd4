"""Stationary distributions, irreducibility, ergodic decomposition, and an
exact reversibility check (Kolmogorov's cycle criterion on a cycle basis)."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .exceptions import DimensionMismatch, InconsistentSupport, RevMarkovError, StationaryUnderflow
from .sparse_core import (
    ProbabilityVector,
    SparseStochasticMatrix,
    _as_csr,
    _csr_add,
    _CSRArrays,
    _edge_rows,
    _gather,
    _row_edges,
    _row_major,
    _row_sums,
    _scipy,
    _symmetric_lu,
    _transpose,
)

__all__ = [
    "ErgodicDecomposition",
    "CycleCheckResult",
    "stationary_mixture",
    "strongly_connected_components",
    "ergodic_decomposition",
    "kolmogorov_cycle_check",
    "is_irreducible",
]

logger = logging.getLogger(__name__)

#: Largest componentwise balance residual ``|inflow - outflow| / outflow`` of
#: a sparse-LU solution that :func:`_balance_solve` keeps.
BALANCE_TOLERANCE = 1e-12

#: Largest cycle log-sum that :func:`kolmogorov_cycle_check` passes.
CYCLE_TOLERANCE = 1e-10


def _class_stationary(n: int, rows, cols, vals) -> np.ndarray:
    """Stationary vector of one irreducible stochastic block of ``n`` states,
    given its entries in canonical row-major order.

    Works with the balance equations ``pi (D - O) = 0``, where ``O`` is the
    off-diagonal part of the block and ``D`` holds its row sums, so that
    ``1 - p_ii`` never comes from a subtraction (the GTH trick), solved by
    :func:`_sweep_or_solve`.
    """
    if n == 1:
        return np.ones(1)
    off = rows != cols
    O = _row_major(vals[off], rows[off], cols[off], n)
    pi = _sweep_or_solve(O, _row_sums(O), f"class of {n} states")
    return pi / pi.sum()


def _sweep_or_solve(O, d, label: str) -> np.ndarray:
    """The solution ``x`` of the balance equations ``x (D - O) = 0`` with
    ``x_0 = 1``, for the CSR arrays ``O`` of an irreducible block with no
    diagonal and its row sums ``d``: by :func:`_jump_chain_sweep` when it
    converges fast, as on expanders, else by :func:`_balance_solve`.  One
    ``DEBUG`` record names ``label`` and the method kept.
    """
    x, steps, residual = _jump_chain_sweep(O, d)
    if x is None:
        return _balance_solve(O, d, f"{label} (sweep declined at step {steps})")
    logger.debug("%s by the jump-chain sweep: %d steps, residual %.3g", label, steps, residual)
    return x


def _balance_solve(O, d, label: str) -> np.ndarray:
    """The solution ``x`` of the balance equations ``x (D - O) = 0`` with
    ``x_0 = 1``: the expected visits of the walk restarted at state 0.  ``O``
    is the arrays of a canonical CSR matrix with no diagonal, and ``d`` its
    row sums as the caller summed them, so no entry comes from a
    subtraction.

    Sparse LU is accurate in norm only, so its ``x`` is kept if nonnegative
    with every balance equation, state 0's too, holding to
    ``BALANCE_TOLERANCE`` componentwise (or with both sides 0).  Else sparse
    GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985)
    censors, round by round, the flows through the states ``I`` other than 0
    whose key (degree in ``O + O^T``, then a seeded random rank) is below
    every neighbour's, an independent set (Luby, SIAM J. Comput. 15, 1986):
    ``O_KK += O_KI diag(1/d_I) O_IK`` off the diagonal, ``x_I = x_K O_KI /
    d_I``.  No step subtracts, so every entry is accurate relative to itself
    (O'Cinneide, Numer. Math. 65, 1993).  A ``DEBUG`` record names ``label``,
    the method kept and the LU residual.
    """
    m, rows, cols, vals = d.size, _edge_rows(O), O.indices, O.data
    # (D - O)[1:, 1:], assembled from the arrays in canonical form
    inner, diagonal = (rows > 0) & (cols > 0), np.arange(1, m)
    i, j = np.r_[rows[inner], diagonal] - 1, np.r_[cols[inner], diagonal] - 1
    A = sp.csr_matrix((np.r_[-vals[inner], d[1:]], (i, j)), shape=(m - 1, m - 1))
    head = slice(O.indptr[0], O.indptr[1])  # row 0 of O: the right-hand side
    rhs = np.zeros(m)
    rhs[cols[head]] = vals[head]
    try:
        x = np.r_[1.0, _symmetric_lu(A.T).solve(rhs[1:])]
    except RuntimeError:  # exactly singular factor
        x = np.full(m, np.nan)
    residual = np.inf
    if x.min() >= 0.0:
        outflow = x * d
        gap = np.abs(np.bincount(cols, weights=x[rows] * vals, minlength=m) - outflow)
        residual = np.max(np.divide(gap, outflow, out=np.zeros_like(gap), where=gap > 0.0))
    if residual <= BALANCE_TOLERANCE:
        logger.debug("%s by sparse LU: residual %.3g", label, residual)
        return x
    logger.debug("%s by GTH elimination: sparse LU residual %.3g rejected", label, residual)
    rng, rounds, O = np.random.default_rng(0), [], _scipy(O)
    while O.shape[0] > 1:
        m = O.shape[0]
        link = (O + O.T).tocoo()
        key = np.bincount(link.row, minlength=m) * m + rng.permutation(m)
        key[0] = m * m  # state 0 blocks no neighbour and stays
        kept = np.arange(m) == 0
        kept[link.row[key[link.col] < key[link.row]]] = True
        K, I = np.flatnonzero(kept), np.flatnonzero(~kept)
        # I is independent, so a row of I flows into K alone
        into, out_of = O[K][:, I], O[I][:, K]
        d = np.asarray(out_of.sum(axis=1)).ravel()
        rounds.append((K, I, into, d))
        O = O[K][:, K] + into @ (sp.diags(1.0 / d) @ out_of)
        O = sp.triu(O, 1, "csr") + sp.tril(O, -1, "csr")  # drop the loops through I
    x = np.ones(1)
    for K, I, into, d in reversed(rounds):
        full = np.empty(K.size + I.size)
        full[K], full[I] = x, (x @ into) / d
        x = full
    return x


#: Componentwise balance residual at which the jump-chain sweep stops: the
#: rounding floor of one sweep step, so the sweep is kept only once it has
#: converged as far as double precision allows.
_SWEEP_FLOOR = 1e-14
#: Most steps the sweep may take on a class; a class whose observed
#: contraction projects more goes to :func:`_balance_solve` instead.
_SWEEP_BUDGET = 400
#: Steps between two residual checks of the sweep.
_SWEEP_CHECK = 10
#: Weight of the jump chain's step in each step of the sweep; the rest
#: stays put, which damps a periodic class's eigenvalue -1 to -1/2.
_SWEEP_WEIGHT = 0.75
#: Stored entries of the sweep's transposed copy scaled per block, so the
#: gathered scale factors are one block long whatever the class's size.
_SCALE_BLOCK = 1 << 16


def _jump_chain_sweep(O, d: np.ndarray):
    """Damped power iteration ``x <- (1 - w) x + w O^T D^-1 x`` on the jump
    chain ``D^-1 O``, with ``w = _SWEEP_WEIGHT``; its fixed point is
    ``x = pi * d``.

    Started from uniform ``pi``.  Each step adds nonnegative terms only, as
    GTH elimination does (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985),
    so every entry of ``pi`` comes out to relative accuracy.  The weight
    maps the jump chain's eigenvalues ``l`` to ``1 - w + w l``: a periodic
    class's ``-1`` becomes ``-1/2``, so periodic classes converge too.  The
    componentwise balance residual ``max_j |O^T D^-1 x - x|_j / x_j``, read
    off the step as ``|y - x|_j / (w x_j)``, falls geometrically at the
    damped chain's spectral gap (Stewart, *Introduction to the Numerical
    Solution of Markov Chains*, 1994, ch. 3).  The sweep is kept only when
    the residual crosses ``_SWEEP_FLOOR`` between two checks, and it
    declines as soon as the contraction between two checks projects more
    than ``_SWEEP_BUDGET`` steps in all, or a start already at the floor
    shows no contraction to certify it.

    ``O`` is the CSR arrays of the off-diagonal block.  Its transpose is
    copied once into CSR arrays by :func:`_transpose` (about 12 bytes per
    stored entry), and each entry ``O_ij`` of the copy is scaled once to
    ``O_ij (w / d_i)``, ``_SCALE_BLOCK`` entries at a time, so the scale
    factors gathered for it take at most 512 KB.  A step is then two kernel calls on reused buffers:
    ``y = (1 - w) x``, then :func:`_csr_add` adds each row's terms, in
    storage order, onto ``y``.

    Returns ``(pi, steps, residual)``, ``pi`` scaled so that ``pi_0 = 1``
    (as :func:`_balance_solve` scales its ``x``) and ``None`` when declined.
    """
    flow_in = _transpose(O)
    scale = _SWEEP_WEIGHT / d
    for lo in range(0, flow_in.data.size, _SCALE_BLOCK):
        block = flow_in.data[lo : lo + _SCALE_BLOCK]
        np.multiply(block, scale[flow_in.indices[lo : lo + _SCALE_BLOCK]], out=block)
    stay = 1.0 - _SWEEP_WEIGHT
    x = d / d.sum()
    y = np.empty_like(x)
    for step in range(_SWEEP_BUDGET + 1):
        np.multiply(x, stay, out=y)
        _csr_add(flow_in, x, y)
        if step % _SWEEP_CHECK == 0:
            residual = float(np.max(np.abs(y - x) / x)) / _SWEEP_WEIGHT
            if step:
                if residual <= _SWEEP_FLOOR < previous:
                    pi = x / d
                    return pi / pi[0], step, residual
                # decline unless this check's contraction, kept up for the
                # rest of the budget, reaches the floor (NaN declines too; at
                # step _SWEEP_BUDGET no checks are left, so the loop ends here)
                checks_left = (_SWEEP_BUDGET - step) / _SWEEP_CHECK
                if not (
                    _SWEEP_FLOOR < previous
                    and residual < previous
                    and residual * (residual / previous) ** checks_left <= _SWEEP_FLOOR
                ):
                    return None, step, residual
            previous = residual
        x, y = y, x


def strongly_connected_components(P) -> list[np.ndarray]:
    """Strongly connected components of the support digraph, in reverse
    topological order (every component is emitted before any component that
    can reach it).

    The labels come from ``scipy.sparse.csgraph`` (Pearce's iterative
    algorithm), whose label order is reverse topological.  The output is
    deterministic, and each component is returned as an ascending index
    array.
    """
    count, labels = connected_components(_as_csr(P), directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def is_irreducible(P) -> bool:
    """True when the support digraph is strongly connected."""
    return connected_components(_as_csr(P), directed=True, connection="strong")[0] == 1


def _closed_components(P: SparseStochasticMatrix):
    """The closed (recurrent) strongly connected components of ``P`` as
    ascending index arrays ordered by their first state, and the states of
    the open components (the transient states), ascending.

    A component is open exactly when some stored edge leaves it.
    """
    csr = P.csr
    count, labels = connected_components(csr, directed=True, connection="strong")
    sources = labels[_edge_rows(csr)]
    is_open = np.zeros(count, dtype=bool)
    is_open[sources[sources != labels[csr.indices]]] = True
    # each state keyed by its component's first state: a stable sort by key
    # lists the closed components by first state, each one ascending
    first = np.full(count, csr.shape[0])
    np.minimum.at(first, labels, np.arange(csr.shape[0]))
    first = first[labels]
    closed = np.flatnonzero(~is_open[labels])
    closed = closed[np.argsort(first[closed], kind="stable")]
    starts = np.flatnonzero(np.diff(first[closed])) + 1
    return np.split(closed, starts), np.flatnonzero(is_open[labels])


@dataclass(frozen=True)
class ErgodicDecomposition:
    """Ergodic classes (ascending index arrays, in order of their first
    state, as the pipeline solves them) and the transient states, ascending."""

    classes: list
    transient: np.ndarray


def ergodic_decomposition(
    P: SparseStochasticMatrix, pi: ProbabilityVector
) -> ErgodicDecomposition:
    """Split the state space into ergodic classes and transient states.

    The classes are the closed strongly connected components of ``P`` that
    hold part of ``supp(pi)``; every other state is transient.  ``pi`` must
    be positive on every class state and carry no support anywhere else.
    Otherwise ``InconsistentSupport`` names a state with mass off the
    classes or, failing that, the class state that sends the most
    probability outside the classes' positive set, with that probability.
    """
    if P.n != pi.n:
        raise DimensionMismatch("dimensions of P and pi disagree")
    return _decompose(P, pi, _closed_components(P)[0])[0]


def _decompose(P, pi, closed):
    """:func:`ergodic_decomposition` given the closed components of ``P``,
    and a flag per closed component that is set when it is a class."""
    in_support = np.zeros(P.n, dtype=bool)
    in_support[pi.support] = True
    is_class = [bool(in_support[members].any()) for members in closed]
    classes = list(compress(closed, is_class))
    in_class = np.zeros(P.n, dtype=bool)
    for members in classes:
        in_class[members] = True
    positive = in_class & (pi.values > 0.0)
    if np.any(in_support & ~in_class) or np.any(in_class & ~positive):
        csr = P.csr
        leak = np.bincount(
            _edge_rows(csr), weights=csr.data * ~positive[csr.indices], minlength=P.n
        )
        stray = np.flatnonzero(in_support & ~in_class)
        suspects = stray if stray.size else pi.support
        bad = int(suspects[leak[suspects].argmax()])
        raise InconsistentSupport(bad, float(leak[bad]))
    return ErgodicDecomposition(classes=classes, transient=np.flatnonzero(~in_class)), is_class


def stationary_mixture(P: SparseStochasticMatrix) -> ProbabilityVector:
    """The limit of ``x0^T P^k`` from the uniform start ``x0``, in closed form.

    Decomposes the chain into closed classes and transient states, and
    weights each class's stationary vector (see :func:`_class_stationary`)
    by the probability that a walk started uniformly is absorbed into it.
    That probability comes from the expected departures from the transient
    states, solved on their jump chain with no ``1 - p_tt`` formed, by the
    same :func:`_sweep_or_solve` as the classes, times the probability of
    each jump into a class.
    Transient states get exactly zero mass; a class state whose mass
    underflows to zero raises :class:`~revmarkov.StationaryUnderflow`, and
    masses that leave the double range raise
    :class:`~revmarkov.RevMarkovError`.

    The result is the Cesàro limit of the iterates, which equals their plain
    limit whenever that exists, for any spectral gap and periodic chains.  It
    is the pipeline's only stationary solve; any other stationary vector goes
    in as ``PipelineOptions(pi=...)``.
    """
    closed, transient = _closed_components(P)
    return _mixture(P, closed, transient, [_gather(P.csr, members) for members in closed])


# a value of the stationary solve that leaves the double range ends as inf or
# NaN, which declines the sweep, rejects an LU solution or fails the check below
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _mixture(P, closed, transient, blocks) -> ProbabilityVector:
    """:func:`stationary_mixture` given the closed components of ``P``, the
    gathered entries of each, and the transient states."""
    # a class's weight is its start mass plus the transient states' flow into
    # it; a state 0 sends them x0_T (as states 1..m) and takes back their
    # outflow.  The departures from each state, solved on the walk's jump chain,
    # stay finite where the visits to a state left at a subnormal rate overflow
    mass = x0 = np.full(P.n, 1.0 / P.n)
    if transient.size:
        csr, m = P.csr, transient.size
        edges, owner = _row_edges(csr, transient)
        local = np.zeros(P.n, dtype=np.intp)
        local[transient] = np.arange(1, m + 1)
        cols, vals = local[csr.indices[edges]], csr.data[edges]
        off = cols != owner + 1
        rows, cols = np.r_[np.zeros(m, np.intp), owner[off] + 1], np.r_[1 : m + 1, cols[off]]
        O = sp.csr_matrix((np.r_[x0[transient], vals[off]], (rows, cols)), shape=(m + 1, m + 1))
        d = _row_sums(O)
        jump = _CSRArrays(O.data / np.repeat(d, np.diff(O.indptr)), O.indices, O.indptr, O.shape)
        flows = _sweep_or_solve(jump, _row_sums(jump), f"transient flows of {m} states")[1:]
        # the expected departures from each state times a jump probability, at most 1
        weights = flows[owner] * d[0] * (vals / d[1:][owner])
        mass = x0 + np.bincount(csr.indices[edges], weights=weights, minlength=P.n)

    pi = np.zeros(P.n)
    for members, block in zip(closed, blocks):
        pi[members] = mass[members].sum() * _class_stationary(members.size, *block)
    total = pi.sum()
    if not np.isfinite(total):
        raise RevMarkovError(f"the class weights left the double range (their sum is {total})")
    if np.count_nonzero(pi) + transient.size < P.n:
        raise StationaryUnderflow(int(np.setdiff1d(np.flatnonzero(pi == 0.0), transient)[0]))
    return ProbabilityVector(pi / total)


@dataclass(frozen=True)
class CycleCheckResult:
    """Outcome of the cycle-product reversibility check."""

    passed: bool
    cycle: Optional[tuple] = None
    forward_product: float = 0.0
    reverse_product: float = 0.0
    #: ``log(forward / reverse)`` summed edge by edge around the cycle, so it
    #: stays finite where both products underflow; ``+inf`` for a one-way edge.
    log_sum: float = 0.0


def kolmogorov_cycle_check(P: SparseStochasticMatrix) -> CycleCheckResult:
    """Kolmogorov's criterion: a chain is reversible exactly when every cycle
    of its support has equal forward and reverse transition products (Kelly,
    *Reversibility and Stochastic Networks*, 1979, section 1.5).

    It is tested exactly on a cycle basis inside each strongly connected
    component, ignoring the diagonal, in ``O(n + nnz)`` work besides binary
    searches within rows.  A one-way edge ``i -> j`` violates it, closed by
    the shortest path from ``j`` back to ``i``.  Otherwise potentials ``phi``
    are summed along a breadth-first forest, and a chord violates it when
    ``|phi_i + log P_ij - log P_ji - phi_j| > CYCLE_TOLERANCE``, closed by
    its tree path.  The tolerance thus bounds the log-sum around a cycle,
    whose rounding grows with the tree depth times ``max |log P_ij|``.  The
    first violating edge in CSR order is reported with its cycle, from the
    cycle's smallest state, and with that log-sum, which stays finite on
    long cycles whose products both underflow.
    """
    n = P.n
    csr = P.csr
    count, labels = connected_components(csr, directed=True, connection="strong")
    rows = _edge_rows(csr)
    inner = (labels[rows] == labels[csr.indices]) & (rows != csr.indices)
    rows, cols, data = rows[inner], csr.indices[inner], csr.data[inner]
    if not cols.size:
        return CycleCheckResult(passed=True)
    edges = sp.csr_array((data, (rows, cols)), shape=(n, n))
    reverse = edges[cols, rows]
    one_way = np.flatnonzero(reverse == 0.0)
    if one_way.size:
        return _violation(edges, edges.T, rows[one_way[0]], cols[one_way[0]], np.inf)

    # one breadth-first forest carrying g = log P_ij - log P_ji, its virtual
    # root n joined to the first state of each component by edges of g = 0
    g = np.log(data) - np.log(reverse)
    firsts = np.full(count, n)
    np.minimum.at(firsts, labels, np.arange(n))
    forest = sp.csr_array(
        (np.r_[g, np.zeros(firsts.size)], (np.r_[rows, np.full(firsts.size, n)], np.r_[cols, firsts])),
        shape=(n + 1, n + 1),
    )
    order, pred = breadth_first_order(forest, n, return_predecessors=True)
    order, parent = order[1:], pred[order[1:]]
    phi, step = [0.0] * (n + 1), forest[parent, order].tolist()
    for v, p, g_v in zip(order.tolist(), parent.tolist(), step):
        phi[v] = phi[p] + g_v
    phi = np.array(phi)
    chord = (pred[cols] != rows) & (pred[rows] != cols)
    mismatch = phi[rows] + g - phi[cols]
    failing = np.flatnonzero(chord & (np.abs(mismatch) > CYCLE_TOLERANCE))
    if not failing.size:
        return CycleCheckResult(passed=True)
    tree = sp.csr_array((np.ones(n), (parent, order)), shape=(n + 1, n + 1))
    k = failing[0]
    return _violation(edges, tree + tree.T, rows[k], cols[k], float(mismatch[k]))


def _violation(edges: sp.csr_array, backward, i, j, log_sum) -> CycleCheckResult:
    """Failing verdict on ``i -> j`` closed by the shortest path from ``j`` to
    ``i``, searched from ``i`` in the reversed graph ``backward``, with the
    cycle's ``log_sum``."""
    toward = breadth_first_order(backward, i, return_predecessors=True)[1]
    cycle = [int(j)]
    while cycle[-1] != i:
        cycle.append(int(toward[cycle[-1]]))
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    ahead = cycle[1:] + cycle[:1]
    return CycleCheckResult(
        passed=False,
        cycle=tuple(cycle),
        forward_product=float(np.prod(edges[cycle, ahead])),
        reverse_product=float(np.prod(edges[ahead, cycle])),
        log_sum=log_sum,
    )
