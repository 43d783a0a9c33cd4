"""Solver for the reduced strongly convex program

    minimize   1/2 y^T Q y + c^T y
    subject to A_eq y = b_eq,  y >= 0

with diagonal positive-definite ``Q``, by a semismooth Newton method on the
dual: because ``Q`` is diagonal, the dual in the ``n`` equality multipliers
is unconstrained and piecewise quadratic, and each Newton step solves the
n-by-n normal equations ``A_F diag(1/q_F) A_F^T d = g`` of the current free
set ``F``.  Each stored entry of ``A`` stands for one entry of that matrix
in the same row, so the matrix is formed once per Newton step by writing its
entries into one array over ``A``'s row pointers, with no sparse product.
That system is solved by Jacobi-preconditioned conjugate gradients,
one sparse product per iteration, and by a sparse factor of the same matrix
only when conjugate gradients break down or stall.

Newton-CG is inexact while the free set changes (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19, 1982; Zhao, Sun & Toh, SIAM J. Optim. 20,
2010): only the last Newton step needs its system solved to machine
precision, and a step that changes the free set cannot be the last, so it is
taken at a loose conjugate-gradient tolerance.

Since the objective is strongly convex the minimizer is unique; the test
suite holds the solver to the one found by enumerating every active set of
small instances.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .exceptions import LengthMismatch, MaxIterations
from .qp_build import ReducedQP
from .sparse_core import _csr_apply, _CSRArrays, _edge_rows, _scipy, _symmetric_lu

__all__ = [
    "SolverOptions",
    "KKTResiduals",
    "SolverResult",
    "solve_qp",
    "kkt_residuals",
]

logger = logging.getLogger(__name__)

#: Conjugate gradients on a Newton system stop once the recurred residual
#: satisfies ``||r||_inf <= _CG_TOLERANCE * ||g||_inf``.  The stop rule of
#: the Newton loop needs its last unit step solved to machine precision: at
#: 1e-14 the worst pipeline residual rose to 1e-13 on wide-span chains.
_CG_TOLERANCE = 1e-16

#: The forcing term of a Newton step that cannot be the last: conjugate
#: gradients may return once ``||r||_inf <= _CG_FORCING * ||g||_inf`` when the
#: step at that iterate changes the free set.
_CG_FORCING = 1e-2

#: Conjugate-gradient iterations after which a Newton system is handed to the
#: sparse factor, lowered to ``4 m`` for order ``m`` (exact arithmetic needs
#: ``m``); well-conditioned systems converge in about 20-40.
_CG_MAX_ITERATIONS = 200

#: The smallest normal double, below which a squared tolerance has underflowed.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SolverOptions:
    """Solver controls.

    ``max_iterations`` caps the Newton steps, which start from zero
    multipliers; ``kkt_tolerance`` bounds the worst KKT residual of an
    accepted solution.
    """

    kkt_tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if not self.kkt_tolerance > 0.0:
            raise ValueError("kkt_tolerance must be positive")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")


class KKTResiduals(NamedTuple):
    """(stationarity, primal equality, primal nonnegativity, complementarity).

    Complementarity is measured as ``||min(y, z)||_inf``, which also exposes
    negative multipliers.
    """

    stationarity: float
    primal_eq: float
    primal_ineq: float
    complementarity: float

    @property
    def worst(self) -> float:
        """The largest residual, NaN when any residual is NaN."""
        return float(np.max(self))


@dataclass(frozen=True)
class SolverResult:
    """Solution of :func:`solve_qp`.

    ``iterations`` counts Newton steps, ``cg_iterations`` the conjugate
    gradient iterations over all of them, and ``factor_steps`` the Newton
    systems handed to the sparse factor.
    """

    y: np.ndarray
    iterations: int
    cg_iterations: int
    factor_steps: int
    kkt_residuals: KKTResiduals

    def __post_init__(self):
        self.y.setflags(write=False)


def _normal_solve(normal: _CSRArrays, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve the free-set normal equations ``S x = rhs`` by an exact sparse
    factor of the formed ``S``, given as its CSR arrays.

    The fallback of a dual Newton step whose conjugate gradients broke down
    or stalled.  ``S`` is symmetric positive semidefinite, so it is factored
    by symmetric-mode sparse LU in minimum-degree order without pivoting.  On
    factorization failure a diagonal regularization is escalated from 1e-14
    to 1e-6; returns ``None`` once that is spent.
    """
    normal, reg = _scipy(normal), 0.0
    while reg <= 1e-6:
        try:
            M = normal + reg * sp.identity(normal.shape[0]) if reg else normal
            return _symmetric_lu(M.tocsc()).solve(rhs)
        except RuntimeError:
            reg = 1e-14 if reg == 0.0 else reg * 100.0
    return None


def _newton_pcg(normal: _CSRArrays, diag: np.ndarray, rhs: np.ndarray, stop_loose):
    """Solve ``S x = rhs`` by Jacobi-preconditioned conjugate gradients for a
    symmetric positive semidefinite ``S``.

    ``diag`` is the diagonal of ``S``.  Returns ``(x, iterations, residual,
    tight)`` with ``residual = ||r||_inf`` of the recurred residual; ``x`` is
    ``None`` when the iteration breaks down (a zero diagonal entry, a
    direction of nonpositive curvature, or an ``r^T D^-1 r`` that underflows
    to zero) or misses ``_CG_TOLERANCE`` within ``min(_CG_MAX_ITERATIONS, 4 *
    rhs.size)`` iterations.

    ``tight`` tells whether ``x`` meets ``_CG_TOLERANCE``.  The first iterate
    that meets only the loose tolerance ``_CG_FORCING`` is passed to
    ``stop_loose``, once: if it returns true, that iterate is returned with
    ``tight`` false, and otherwise the iteration goes on from its own state,
    so the tight iterate it returns has the bits it would have without the
    loose test.

    The iterates live in two buffers, ``[x; -r]`` and ``[p; S p]``, so one
    multiply-add updates ``x`` and ``r`` through a third, and ``S p`` is
    written into the second by :func:`_csr_apply`, SciPy's kernel on the
    stored arrays of ``S``.  That is the textbook recurrence up to sign flips
    and commutation, so every iterate has the same bits.  The products of the
    Newton loop around it (``A^T lam``, ``A y``, ``(A o A) w_F`` and ``A^T
    step``) run the same kernel on the arrays of ``A`` and of the stored
    ``A^T``.  The exact test ``||r||_inf <= target`` for either tolerance
    runs only once ``r^T D^-1 r <= 4 target^2 sum(1/d)``: it cannot pass
    before, as ``||r||_inf^2 >= r^T D^-1 r / sum(1/d)``, and the factor 4
    covers the rounding of both sides.
    """
    n = rhs.size
    residual = float(np.abs(rhs).max())
    target, loose_target = _CG_TOLERANCE * residual, _CG_FORCING * residual
    if residual <= target:
        return np.zeros_like(rhs), 0, residual, True
    if not diag.all():
        return None, 0, residual, False
    inv_diag = 1.0 / diag
    inv_sum = float(inv_diag.sum())

    def screen(tolerance):  # inf when tolerance^2 underflowed
        bound = 4.0 * tolerance * tolerance * inv_sum
        return bound if bound >= _TINY else np.inf

    bound = screen(loose_target)
    xr, ps, scaled = np.zeros(2 * n), np.empty(2 * n), np.empty(2 * n)
    neg_z = np.empty(n)
    x, neg_r, p, s = xr[:n], xr[n:], ps[:n], ps[n:]
    np.negative(rhs, out=neg_r)
    np.multiply(inv_diag, rhs, out=p)
    rz = float(rhs @ p)
    if not rz:
        return None, 0, residual, False
    for iteration in range(1, min(_CG_MAX_ITERATIONS, 4 * n) + 1):
        _csr_apply(normal, p, s)
        curvature = float(p @ s)
        if curvature <= 0.0:
            break
        xr += np.multiply(ps, rz / curvature, out=scaled)
        np.multiply(inv_diag, neg_r, out=neg_z)
        rz, rz_old = float(neg_r @ neg_z), rz
        if rz <= bound:
            residual = float(np.abs(neg_r).max())
            if residual <= target:
                return x, iteration, residual, True
            if residual <= loose_target:  # once: then only the tight test
                loose_target, bound = target, screen(target)
                if stop_loose(x):
                    return x, iteration, residual, False
            if not rz:  # underflowed: the next step would divide by it
                break
        p *= rz / rz_old
        p -= neg_z
    return None, iteration, float(np.abs(neg_r).max()), False


def kkt_residuals(qp: ReducedQP, y: np.ndarray, lam: np.ndarray, z: np.ndarray) -> KKTResiduals:
    """KKT residual tuple at ``y`` for the equality multipliers ``lam`` and
    the bound multipliers ``z``.

    ``y`` and ``z`` must have ``qp.y_m`` entries and ``lam`` ``qp.n``, or
    :class:`LengthMismatch` is raised: the products below run SciPy's
    kernels, which read their vectors without checking the lengths.
    """
    y, lam, z = (np.asarray(v, dtype=float).ravel() for v in (y, lam, z))
    for name, vector, size in (("y", y, qp.y_m), ("lam", lam, qp.n), ("z", z, qp.y_m)):
        if vector.size != size:
            raise LengthMismatch(f"expected {name} of length {size}, got {vector.size}")
    at_lam, a_y = np.empty(qp.y_m), np.empty(qp.n)
    _csr_apply(qp.a_eq_t, lam, at_lam)
    _csr_apply(qp.a_eq, y, a_y)
    g = qp.hessian_diag * y + qp.linear
    stationarity = float(np.abs(g - at_lam - z).max())
    primal_eq = float(np.abs(a_y - qp.b_eq).max())
    primal_ineq = float(max(0.0, -y.min())) if y.size else 0.0
    complementarity = float(np.abs(np.minimum(y, z)).max()) if y.size else 0.0
    return KKTResiduals(stationarity, primal_eq, primal_ineq, complementarity)


def _normal_matrix(qp: ReducedQP):
    """The free-set normal matrix ``S = A diag(w_F) A^T`` of the dual Newton
    systems, formed without a sparse product on the sparsity of ``A``.

    Column ``k`` of ``A``, the variable of position ``(i, j)``, holds ``s_j``
    in row ``i`` and, off the diagonal, ``s_i`` in row ``j``.  Two rows of
    ``A`` share only the column of their position, so the entry of ``A`` in
    row ``r`` and column ``k`` stands for the entry ``s_i s_j w_k`` of ``S``
    in column ``i + j - r``, and that of the diagonal variable for
    ``S_rr = sum_k A_rk^2 w_k``: ``S`` reuses ``indptr`` with the other
    endpoints as its column indices.

    Returns ``form``: ``form(w_F)`` writes ``S`` for the weights ``w_F`` into
    the one set of CSR arrays it returns, on which conjugate gradients run
    SciPy's product kernel (only the sparse factor of :func:`_normal_solve`
    builds a SciPy matrix on them), and its diagonal into the one vector it
    returns.  The products ``s_i s_j`` of the positions are formed once per
    solve, and ``form`` scales them by ``w_F``, so ``S`` has the bits of
    ``s_i * s_j * w_k`` formed entry by entry.
    """
    a, maps = qp.a_eq, qp.maps
    i, j = maps.upper_rows, maps.upper_cols
    rows = _edge_rows(a)
    columns = i[a.indices] + j[a.indices] - rows
    diagonal = np.flatnonzero(columns == rows)
    normal = _CSRArrays(np.empty(a.nnz), columns.astype(a.indices.dtype), a.indptr, (qp.n, qp.n))
    a_squared = _CSRArrays(a.data**2, a.indices, a.indptr, a.shape)
    pairs = qp.pi_hat[i] * qp.pi_hat[j]
    diag = np.empty(qp.n)

    def form(w_f):
        _csr_apply(a_squared, w_f, diag)
        # every index is in range, and "clip" writes out without a buffer copy
        np.take(pairs * w_f, a.indices, out=normal.data, mode="clip")
        normal.data[diagonal] = diag
        return normal, diag

    return form


def _dual_gain(v, u, w, slope, t):
    """``theta(lam + t step) - theta(lam)`` for ``v = A^T lam - c``,
    ``u = A^T step``, ``w = 1/q`` and ``slope = (b - A y(lam))^T step``.

    It equals ``t slope - sum(w r) / 2`` with every ``r >= 0`` formed without
    cancellation; differencing ``theta`` itself cannot resolve the gain of
    the last steps, which falls below the rounding of ``theta``.  ``r`` is
    written over ``t u`` case by case, so only two ``y_m``-length arrays
    are live.
    """
    free = v > 0.0
    tu = t * u
    v_t = v + tu
    r = np.square(tu, out=tu)  # free before and after the step
    leaving = np.flatnonzero(free & (v_t <= 0.0))
    r[leaving] = -v[leaving] * (v[leaving] + 2.0 * t * u[leaving])
    np.square(np.maximum(v_t, 0.0, out=v_t), out=r, where=~free)
    return t * slope - 0.5 * float(r @ w)


# a value of the Newton loop that leaves the double range ends as inf or NaN,
# which stalls the line search or fails the KKT gate of solve_qp
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _solve_dual_newton(qp: ReducedQP, opts: SolverOptions):
    """Semismooth Newton method on the dual of the reduced program.

    For multipliers ``lam`` of the equality rows, the minimizer over
    ``y >= 0`` is ``y(lam) = max(0, A^T lam - c)/q``, so the dual function
    ``theta(lam) = b^T lam - 1/2 y^T Q y`` is concave, unconstrained and
    piecewise quadratic with gradient ``b - A y(lam)``.  On the free set
    ``F = {A^T lam - c > 0}`` its generalized Hessian is
    ``-A_F diag(1/q_F) A_F^T``.  Newton steps are globalized by Armijo
    backtracking on ``theta``; the multiplier ``z = q y + c - A^T lam`` makes
    stationarity, dual feasibility and complementarity exact at every
    iterate, so only ``||A y - b||`` has to converge (Qi & Sun, SIAM J.
    Matrix Anal. Appl. 28, 2006; Zhao, Sun & Toh, SIAM J. Optim. 20, 2010).

    Each Newton system ``A diag(w_F) A^T``, ``w_F = 1/q`` on ``F`` and zero
    elsewhere, is formed by :func:`_normal_matrix` and goes to
    :func:`_newton_pcg` (Newton-CG) with its diagonal ``(A o A) w_F`` as the
    Jacobi preconditioner.  When conjugate gradients break down or stall, as
    where the free-set matrix is singular on bipartite chains,
    :func:`_normal_solve` factors the same matrix and a ``DEBUG`` record on
    this module's logger gives the order, the free-set size, the iterations
    and the residual reached.

    The steps are inexact Newton steps with the forcing term
    ``_CG_FORCING`` (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
    1982) as long as the free set changes.  At the first CG iterate ``x``
    whose residual is within ``_CG_FORCING ||g||_inf``, the loop forms
    ``u = A^T x``: if ``A^T lam - c + u > 0`` differs from ``A^T lam - c >
    0``, that step cannot be the last one, so CG returns ``x`` and the line
    search reuses ``u``.  Otherwise CG goes on from its own state to
    ``_CG_TOLERANCE``, with the bits it has without the loose test.

    The method stops once ``||b - A y||_inf <= kkt_tolerance`` after a unit
    step solved to ``_CG_TOLERANCE`` or by the factor, whose free set is
    also the free set ``y > 0`` it produced.  That step solved the
    equality-constrained program on its active set to machine precision, so
    the residuals sit there too; a step solved only to the loose tolerance
    never ends the loop this way.  A stalled line search, a
    factor that fails at every regularization of :func:`_normal_solve` or an
    exhausted ``max_iterations`` returns the iterate with the smallest
    ``||b - A y||_inf`` instead.

    Returns ``(y, lam, z, iterations, steps, cg_iterations,
    factor_steps)``: the Newton step that reached ``lam``, the Newton steps
    applied to ``lam`` (a step the loop breaks on is not), the
    conjugate-gradient iterations over all of them and the systems handed to
    the factor.
    """
    q, c, a, b = qp.hessian_diag, qp.linear, qp.a_eq, qp.b_eq
    w = 1.0 / q
    form_normal = _normal_matrix(qp)
    a_y = np.empty(qp.n)

    def dual_point(lam):
        v = np.empty(qp.y_m)
        _csr_apply(qp.a_eq_t, lam, v)
        v -= c
        y = np.maximum(v, 0.0) / q
        _csr_apply(a, y, a_y)
        return v, y, b - a_y

    lam = np.zeros(qp.n)
    v, y, grad = dual_point(lam)
    u = np.empty(qp.y_m)

    def changes_free_set(step):
        # writes u = A^T step, which the line search reuses when this is true
        _csr_apply(qp.a_eq_t, step, u)
        return not np.array_equal(v + u > 0.0, v > 0.0)

    best = (float(np.abs(grad).max()), lam, 0)
    cg_total = factor_steps = steps = 0
    for iteration in range(1, opts.max_iterations + 1):
        free = y > 0.0
        w_f = np.where(free, w, 0.0)
        normal, diag = form_normal(w_f)
        step, cg_iterations, residual, tight = _newton_pcg(
            normal, diag, grad, changes_free_set
        )
        cg_total += cg_iterations
        if step is None:
            logger.debug(
                "Newton system of order %d (free set %d) handed to the sparse "
                "factor after %d CG iterations at residual %.3g",
                qp.n,
                int(free.sum()),
                cg_iterations,
                residual,
            )
            factor_steps += 1
            step, tight = _normal_solve(normal, grad), True
            if step is None:
                break
        if tight:
            _csr_apply(qp.a_eq_t, step, u)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            if _dual_gain(v, u, w, slope, t) >= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no ascent left at this precision
        lam = lam + t * step
        steps = iteration
        v, y, grad = dual_point(lam)
        worst = float(np.abs(grad).max())
        if worst <= opts.kkt_tolerance and t == 1.0 and tight and np.array_equal(y > 0.0, free):
            return y, lam, np.maximum(-v, 0.0), steps, steps, cg_total, factor_steps
        if worst < best[0]:
            best = (worst, lam, steps)
    _, lam, best_step = best
    v, y, _ = dual_point(lam)
    return y, lam, np.maximum(-v, 0.0), best_step, steps, cg_total, factor_steps


def solve_qp(qp: ReducedQP, opts: SolverOptions | None = None) -> SolverResult:
    """Solve the reduced program to the requested KKT tolerance.

    Runs the dual semismooth Newton method, which ends on a unit step whose
    free set it reproduces, so an accepted solution typically has residuals
    at machine precision.  The strongly convex objective has a unique
    minimizer.

    Raises
    ------
    MaxIterations
        If the tolerance is not met; the exception carries the best iterate
        and names the residuals that fail and the Newton steps taken.
    """
    opts = opts or SolverOptions()
    y, lam, z, iterations, steps, cg_iterations, factor_steps = _solve_dual_newton(qp, opts)
    residuals = kkt_residuals(qp, y, lam, z)
    result = SolverResult(
        y=y,
        iterations=iterations,
        cg_iterations=cg_iterations,
        factor_steps=factor_steps,
        kkt_residuals=residuals,
    )
    if not residuals.worst <= opts.kkt_tolerance:
        failed = ", ".join(
            f"{name} {value:.3e}"
            for name, value in residuals._asdict().items()
            if not value <= opts.kkt_tolerance
        )
        raise MaxIterations(
            result,
            f"KKT residuals above {opts.kkt_tolerance:.0e} ({failed}) after {steps} "
            f"of at most {opts.max_iterations} Newton steps",
        )
    return result
