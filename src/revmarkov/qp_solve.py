"""Solver for the reduced strongly convex program

    minimize   1/2 y^T Q y + c^T y
    subject to A_eq y = b_eq,  y >= 0

with diagonal positive-definite ``Q``, by a semismooth Newton method on the
dual: because ``Q`` is diagonal, the dual in the ``n`` equality multipliers
is unconstrained and piecewise quadratic, and each Newton step is one n-by-n
normal-equations solve on the current free set.

Since the objective is strongly convex the minimizer is unique; the test
suite holds the solver to the one found by enumerating every active set of
small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .exceptions import MaxIterations, NumericalBreakdown
from .qp_build import ReducedQP
from .sparse_core import _symmetric_lu

__all__ = [
    "SolverOptions",
    "KKTResiduals",
    "SolverResult",
    "solve_qp",
    "kkt_residuals",
]

#: Normal matrices of at most this order are factored by dense Cholesky, larger
#: ones by sparse LU.  Sparse LU everywhere made the median model of the
#: ``ensemble`` benchmark (n 100-300) about 60 % slower on a 2-core machine: at
#: that size a dense factor takes 0.07-2.0 ms against 0.7-3.6 ms for sparse LU.
_DENSE_LIMIT = 600


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
        if self.kkt_tolerance <= 0.0:
            raise ValueError("kkt_tolerance must be positive")
        if self.max_iterations < 1:
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
        return max(self)


@dataclass(frozen=True)
class SolverResult:
    y: np.ndarray
    objective: float
    iterations: int
    kkt_residuals: KKTResiduals
    wall_time: float

    def __post_init__(self):
        self.y.setflags(write=False)


def _normal_solve(a: sp.csr_matrix, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(A diag(w) A^T) x = rhs``.

    The Hessian is diagonal, so every linear solve of this module is a solve
    with such a normal matrix: the dual Newton step (with ``A`` restricted to
    a free set) and the least-squares multiplier estimate of
    :func:`kkt_residuals`.  The matrix is symmetric positive definite, so
    beyond ``_DENSE_LIMIT`` it is factored by symmetric-mode sparse LU in
    minimum-degree order without pivoting; up to it, dense Cholesky is
    faster.  On factorization failure a diagonal regularization is escalated
    from 1e-14 to 1e-6 before giving up with :class:`NumericalBreakdown`.
    """
    n = a.shape[0]
    # column scaling without ``a.multiply(w)``'s round trip through COO
    S = sp.csr_matrix((a.data * w[a.indices], a.indices, a.indptr), a.shape) @ a.T
    reg = 0.0
    while True:
        try:
            if n <= _DENSE_LIMIT:
                M = S.toarray()
                M[np.diag_indices_from(M)] += reg
                factor = scipy.linalg.cho_factor(M, check_finite=False)
                return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            M = S + reg * sp.identity(n) if reg else S
            return _symmetric_lu(M.tocsc()).solve(rhs)
        except (scipy.linalg.LinAlgError, RuntimeError) as err:
            reg = 1e-14 if reg == 0.0 else reg * 100.0
            if reg > 1e-6:
                raise NumericalBreakdown(
                    f"normal equations are singular beyond recovery: {err}"
                ) from err


def kkt_residuals(
    qp: ReducedQP,
    y: np.ndarray,
    lam: Optional[np.ndarray] = None,
    z: Optional[np.ndarray] = None,
) -> KKTResiduals:
    """KKT residual tuple at ``y``.

    Multipliers not supplied are estimated by least squares on the support
    of ``y``, where the bound multipliers vanish at a minimizer.
    """
    y = np.asarray(y, dtype=float).ravel()
    g = qp.hessian_diag * y + qp.linear
    if lam is None:
        support = y > 0.0
        a_s = qp.a_eq[:, support]
        lam = _normal_solve(a_s, np.ones(a_s.shape[1]), a_s @ g[support])
    if z is None:
        z = g - qp.a_eq.T @ lam
        stationarity = 0.0
    else:
        stationarity = float(np.abs(g - qp.a_eq.T @ lam - z).max())
    primal_eq = float(np.abs(qp.a_eq @ y - qp.b_eq).max())
    primal_ineq = float(max(0.0, -y.min())) if y.size else 0.0
    complementarity = float(np.abs(np.minimum(y, z)).max()) if y.size else 0.0
    return KKTResiduals(stationarity, primal_eq, primal_ineq, complementarity)


def _dual_gain(v, u, w, slope, t):
    """``theta(lam + t step) - theta(lam)`` for ``v = A^T lam - c``,
    ``u = A^T step``, ``w = 1/q`` and ``slope = (b - A y(lam))^T step``.

    It equals ``t slope - sum(w r) / 2`` with every ``r >= 0`` formed without
    cancellation; differencing ``theta`` itself cannot resolve the gain of
    the last steps, which falls below the rounding of ``theta``.
    """
    v_t = v + t * u
    r = np.where(
        v > 0.0,
        np.where(v_t > 0.0, (t * u) ** 2, -v * (v + 2.0 * t * u)),
        np.maximum(v_t, 0.0) ** 2,
    )
    return t * slope - 0.5 * float(r @ w)


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

    The method stops once ``||b - A y||_inf <= kkt_tolerance`` after a unit
    step whose free set is also the free set ``y > 0`` it produced.  That step
    solved the equality-constrained program on its active set exactly, so
    the residuals sit at machine precision.  A stalled line search, a
    :class:`NumericalBreakdown` or an exhausted ``max_iterations`` returns
    the iterate with the smallest ``||b - A y||_inf`` instead.

    Returns ``(y, lam, z, iterations)``.
    """
    q, c, a, b = qp.hessian_diag, qp.linear, qp.a_eq, qp.b_eq
    w = 1.0 / q

    def dual_point(lam):
        v = a.T @ lam - c
        y = np.maximum(v, 0.0) / q
        return v, y, b - a @ y

    lam = np.zeros(qp.n)
    v, y, grad = dual_point(lam)
    best = (float(np.abs(grad).max()), lam, 0)
    for iteration in range(1, opts.max_iterations + 1):
        free = y > 0.0
        try:
            step = _normal_solve(a[:, free], w[free], grad)
        except NumericalBreakdown:
            break
        u = a.T @ step
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            if _dual_gain(v, u, w, slope, t) >= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no ascent left at this precision
        lam = lam + t * step
        v, y, grad = dual_point(lam)
        worst = float(np.abs(grad).max())
        if worst <= opts.kkt_tolerance and t == 1.0 and np.array_equal(y > 0.0, free):
            return y, lam, np.maximum(-v, 0.0), iteration
        if worst < best[0]:
            best = (worst, lam, iteration)
    _, lam, iteration = best
    v, y, _ = dual_point(lam)
    return y, lam, np.maximum(-v, 0.0), iteration


def solve_qp(qp: ReducedQP, opts: SolverOptions | None = None) -> SolverResult:
    """Solve the reduced program to the requested KKT tolerance.

    Runs the dual semismooth Newton method, which ends on a unit step whose
    free set it reproduces, so an accepted solution typically has residuals
    at machine precision.  The strongly convex objective has a unique
    minimizer.

    Raises
    ------
    MaxIterations
        If the tolerance is not met; the exception carries the best iterate.
    """
    opts = opts or SolverOptions()
    start = time.perf_counter()
    y, lam, z, iterations = _solve_dual_newton(qp, opts)
    residuals = kkt_residuals(qp, y, lam, z)
    result = SolverResult(
        y=y,
        objective=qp.objective(y),
        iterations=iterations,
        kkt_residuals=residuals,
        wall_time=time.perf_counter() - start,
    )
    if residuals.worst > opts.kkt_tolerance:
        raise MaxIterations(result)
    return result
