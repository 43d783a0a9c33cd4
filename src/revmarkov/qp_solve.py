"""Solvers for the reduced strongly convex program

    minimize   1/2 y^T Q y + c^T y
    subject to A_eq y = b_eq,  y >= 0

with diagonal positive-definite ``Q``.  The reference variant is a
semismooth Newton method on the dual: because ``Q`` is diagonal, the dual in
the ``n`` equality multipliers is unconstrained and piecewise quadratic, and
each Newton step is one n-by-n normal-equations solve on the current free
set.  A projected-gradient variant (exact projection onto the polyhedron via
Dykstra alternation) is provided as an independent cross-check, and
:func:`oracle_solve` enumerates every active set for small instances.

Since the objective is strongly convex the minimizer is unique, so all three
routes must agree; the test suite holds them to that.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import (
    Infeasible,
    MaxIterations,
    NumericalBreakdown,
    TooLarge,
)
from .qp_build import ReducedQP

__all__ = [
    "SolverVariant",
    "SolverOptions",
    "KKTResiduals",
    "SolverResult",
    "solve_qp",
    "feasible_start",
    "kkt_residuals",
    "oracle_solve",
]

#: Normal matrices of at most this order are factored by dense Cholesky, larger
#: ones by sparse LU.  Sparse LU everywhere made the median model of the
#: ``ensemble`` benchmark (n 100-300) about 60 % slower on a 2-core machine: at
#: that size a dense factor takes 0.07-2.0 ms against 0.7-3.6 ms for sparse LU.
_DENSE_LIMIT = 600

#: Active-set enumeration cap for the brute-force oracle.
ORACLE_LIMIT = 16


class SolverVariant(Enum):
    DUAL_NEWTON = "dual-newton"
    PROJECTED_GRADIENT = "projected-gradient"


@dataclass(frozen=True)
class SolverOptions:
    """Solver controls.

    ``max_iterations`` caps the Newton steps of the dual Newton variant and
    the accepted steps of projected gradient.  Dual Newton starts from zero
    multipliers; projected gradient starts from :func:`feasible_start`, the
    always-available feasible point built by Metropolis-Hastings adjustment
    of the uniform proposal on the pattern.  ``polish=True`` refines the
    final iterate by a direct solve on the identified active set, which
    pushes the residuals to machine precision.
    """

    kkt_tolerance: float = 1e-10
    max_iterations: int = 200
    variant: SolverVariant = SolverVariant.DUAL_NEWTON
    polish: bool = True

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
    objective_trace: tuple = ()  # accepted-iterate objectives (projected gradient)

    def __post_init__(self):
        self.y.setflags(write=False)


# -- shared linear algebra ----------------------------------------------------


class _NormalSolver:
    """Factors ``S = A diag(w) A^T (+ reg I)`` and solves against it.

    The Hessian is diagonal, so every linear solve of this module is a solve
    with such an ``S``: the dual Newton step and the active-set polish (both
    with ``A`` restricted to a free set), projected gradient's affine
    projection and the least-squares multiplier estimate of
    :func:`kkt_residuals`.  ``S`` is symmetric positive definite, so beyond
    ``_DENSE_LIMIT`` it is factored by symmetric-mode sparse LU in
    minimum-degree order without pivoting; up to it, dense Cholesky is
    faster.  On factorization failure a diagonal
    regularization is escalated from 1e-14 to 1e-6 before giving up with
    :class:`NumericalBreakdown`.
    """

    def __init__(self, a_eq: sp.csr_matrix):
        self.a = a_eq.tocsr()
        self.at = self.a.T.tocsr()
        self.n = a_eq.shape[0]
        self.dense = self.n <= _DENSE_LIMIT

    def refactor(self, w: np.ndarray) -> "_NormalSolver":
        a = self.a
        # column scaling without ``a.multiply(w)``'s round trip through COO
        S = sp.csr_matrix((a.data * w[a.indices], a.indices, a.indptr), a.shape) @ self.at
        reg = 0.0
        while True:
            try:
                if self.dense:
                    M = S.toarray()
                    M[np.diag_indices_from(M)] += reg
                    factor = scipy.linalg.cho_factor(M, check_finite=False)
                    # capture the factor, not self: a reference cycle would
                    # keep each factor alive until the cyclic collector runs
                    self.solve = lambda rhs: scipy.linalg.cho_solve(
                        factor, rhs, check_finite=False
                    )
                else:
                    M = S + reg * sp.identity(self.n) if reg else S
                    self.solve = spla.splu(
                        M.tocsc(),
                        permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True},
                    ).solve
                return self
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
        lam = _NormalSolver(a_s).refactor(np.ones(a_s.shape[1])).solve(a_s @ g[support])
    if z is None:
        z = g - qp.a_eq.T @ lam
        stationarity = 0.0
    else:
        stationarity = float(np.abs(g - qp.a_eq.T @ lam - z).max())
    primal_eq = float(np.abs(qp.a_eq @ y - qp.b_eq).max())
    primal_ineq = float(max(0.0, -y.min())) if y.size else 0.0
    complementarity = float(np.abs(np.minimum(y, z)).max()) if y.size else 0.0
    return KKTResiduals(stationarity, primal_eq, primal_ineq, complementarity)


def feasible_start(qp: ReducedQP) -> np.ndarray:
    """Strictly positive feasible point: the Metropolis-Hastings adjustment of
    the uniform proposal on the pattern, scaled into the symmetric variables.

    With ``d_i`` the degree of state ``i`` (diagonal included) the adjustment
    is ``T_ij = min(1/d_i, pi_j/(pi_i d_j))`` off the diagonal and the row
    complement on it, so with ``s = pi_hat`` the variable of position (i, j)
    is ``min(s_i/(s_j d_i), s_j/(s_i d_j))``.  Exists for every symmetric
    full-diagonal pattern and strictly positive target, which is exactly what
    makes the program feasible in the first place.
    """
    maps = qp.maps
    s = qp.pi_hat
    diag = maps.diagonal_mask
    off = ~diag
    i, j = maps.upper_rows[off], maps.upper_cols[off]
    degree = 1 + np.bincount(i, minlength=maps.n) + np.bincount(j, minlength=maps.n)
    y_off = np.minimum(s[i] / (s[j] * degree[i]), s[j] / (s[i] * degree[j]))
    leaving = np.bincount(i, y_off * s[j] / s[i], maps.n) + np.bincount(
        j, y_off * s[i] / s[j], maps.n
    )
    y0 = np.empty(maps.y_m)
    y0[off] = y_off
    y0[diag] = 1.0 - leaving[maps.upper_rows[diag]]
    return y0


# -- polishing ----------------------------------------------------------------


def _polish(qp: ReducedQP, y: np.ndarray, z: np.ndarray):
    """Direct solve on the active set identified by (y, z).

    Returns ``(y, lam, z)`` at machine precision or None when the identified
    set is unusable (wrong signs or a state left without free variables).
    """
    q, c, a, b = qp.hessian_diag, qp.linear, qp.a_eq, qp.b_eq
    free = y > z
    for _ in range(10):
        if not free.any():
            return None
        a_f = a[:, free]
        if (np.diff(a_f.indptr) == 0).any():
            return None
        w = 1.0 / q[free]
        try:
            solve = _NormalSolver(a_f).refactor(w).solve
        except NumericalBreakdown:
            return None
        lam = solve(b + a_f @ (w * c[free]))
        y_f = w * (a_f.T @ lam - c[free])
        for _ in range(2):  # iterative refinement on the equality residual
            y_f += w * (a_f.T @ solve(b - a_f @ y_f))

        if y_f.min() < -1e-11:
            free = free.copy()
            free[np.flatnonzero(free)[y_f < -1e-11]] = False
            continue
        y_new = np.zeros_like(y)
        y_new[free] = np.maximum(y_f, 0.0)
        z_new = q * y_new + c - a.T @ lam
        z_new[free] = 0.0
        if z_new.min() < -np.sqrt(np.finfo(float).eps):
            released = z_new < -np.sqrt(np.finfo(float).eps)
            free = free | released
            continue
        return y_new, lam, np.maximum(z_new, 0.0)
    return None


# -- semismooth Newton on the dual --------------------------------------------


def _solve_dual_newton(qp: ReducedQP, opts: SolverOptions):
    """Semismooth Newton method on the dual of the reduced program.

    For multipliers ``lam`` of the equality rows, the minimizer over
    ``y >= 0`` is ``y(lam) = max(0, A^T lam - c)/q``, so the dual function
    ``theta(lam) = b^T lam - 1/2 y^T Q y`` is concave, unconstrained and
    piecewise quadratic with gradient ``b - A y(lam)``.  On the free set
    ``F = {A^T lam - c > 0}`` its generalized Hessian is
    ``-A_F diag(1/q_F) A_F^T``, the normal matrix of the active-set polish.
    Newton steps are globalized by Armijo backtracking on ``theta``; the
    multiplier ``z = q y + c - A^T lam`` makes stationarity, dual feasibility
    and complementarity exact at every iterate, so only ``||A y - b||``
    has to converge (Qi & Sun, SIAM J. Matrix Anal. Appl. 28, 2006; Zhao,
    Sun & Toh, SIAM J. Optim. 20, 2010).  A stalled line search ends the
    loop early; :func:`solve_qp`'s polish then finishes from the best
    iterate.
    """
    q, c, a, b = qp.hessian_diag, qp.linear, qp.a_eq, qp.b_eq

    def dual_point(lam):
        v = a.T @ lam - c
        y = np.maximum(v, 0.0) / q
        theta = float(b @ lam) - 0.5 * float(y @ (q * y))
        return y, np.maximum(-v, 0.0), b - a @ y, theta

    lam = np.zeros(qp.n)
    y, z, grad, theta = dual_point(lam)
    best = (float(np.abs(grad).max()), y, lam, z, 0)
    for iteration in range(1, opts.max_iterations + 1):
        if best[0] <= opts.kkt_tolerance:
            break
        free = y > 0.0
        try:
            step = _NormalSolver(a[:, free]).refactor(1.0 / q[free]).solve(grad)
        except NumericalBreakdown:
            break
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            trial = dual_point(lam + t * step)
            if trial[3] >= theta + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no ascent left at this precision
        lam = lam + t * step
        y, z, grad, theta = trial
        worst = float(np.abs(grad).max())
        if worst < best[0]:
            best = (worst, y, lam, z, iteration)
    return (*best, ())


def _dykstra(project_affine, v, tol=1e-14, max_rounds=5000):
    """Projection onto ``{x : A x = b, x >= 0}`` by Dykstra alternation.

    Works in any inner product for which both individual projections are
    supplied/valid; here the affine projection is passed in pre-metricized.
    """
    x = v.copy()
    p = np.zeros_like(v)
    s = np.zeros_like(v)
    for _ in range(max_rounds):
        u = project_affine(x + p)
        p = x + p - u
        x_new = np.maximum(u + s, 0.0)
        s = u + s - x_new
        if np.abs(x_new - x).max() <= tol:
            return x_new
        x = x_new
    return x


def _solve_projected_gradient(qp: ReducedQP, opts: SolverOptions):
    """Projected gradient in the metric of the diagonal Hessian.

    With the metric ``<u, v> = u^T Q v`` the objective has curvature constant
    exactly 1, so the unit step is always admissible and the scheme reduces to
    repeatedly projecting the unconstrained minimizer onto the polyhedron
    (computed by Dykstra alternation, whose affine projection uses the same
    metric).  The objective decreases monotonically along accepted steps.
    """
    q, c, a, b = qp.hessian_diag, qp.linear, qp.a_eq, qp.b_eq
    at = a.T.tocsr()

    w = 1.0 / q  # inverse metric weights
    fsolve = _NormalSolver(a).refactor(w).solve

    def project_affine(v):
        # metric projection onto {A x = b}
        return v + w * (at @ fsolve(b - a @ v))

    y = feasible_start(qp)

    def quad(v):
        return 0.5 * float(v @ (q * v)) + float(c @ v)

    def kkt_tuple(v):
        g = q * v + c
        lam = fsolve(a @ (w * g))
        z = g - at @ lam
        return kkt_residuals(qp, v, lam, z), lam, z

    obj = quad(y)
    trace = [obj]
    best = None
    step = 1.0
    stalled = 0
    iteration = 0
    for iteration in range(1, opts.max_iterations + 1):
        res, lam, z = kkt_tuple(y)
        improved = best is None or res.worst < best[0]
        meaningfully = best is None or res.worst < best[0] * (1.0 - 1e-3)
        if improved:
            best = (res.worst, y.copy(), lam, z, iteration - 1)
        stalled = 0 if meaningfully else stalled + 1
        if res.worst <= opts.kkt_tolerance or stalled >= 30:
            break  # done, or at the accuracy floor of the inner projections

        # monotone step: backtrack on the proximal sufficient-decrease test
        g = q * y + c
        accepted = False
        for _ in range(40):
            cand = _dykstra(project_affine, y - step * (w * g))
            delta = cand - y
            bound = obj + g @ delta + float(delta @ (q * delta)) / (2.0 * step)
            if quad(cand) <= bound + 1e-15:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        y, obj = cand, quad(cand)
        trace.append(obj)

    res, lam, z = kkt_tuple(y)
    if best is None or res.worst < best[0]:
        best = (res.worst, y, lam, z, iteration)
    return (*best, tuple(trace))


def solve_qp(qp: ReducedQP, opts: SolverOptions | None = None) -> SolverResult:
    """Solve the reduced program to the requested KKT tolerance.

    Both variants finish with an active-set polish (unless disabled), which
    re-solves the equality-constrained problem on the identified support and
    typically leaves residuals at machine precision.  The strongly convex
    objective has a unique minimizer, so the variants agree up to tolerance.

    Raises
    ------
    MaxIterations
        If the tolerance is not met; the exception carries the best iterate.
    NumericalBreakdown
        If projected gradient's normal equations are singular beyond
        recovery.
    """
    opts = opts or SolverOptions()
    start = time.perf_counter()
    if opts.variant is SolverVariant.DUAL_NEWTON:
        worst, y, lam, z, iterations, trace = _solve_dual_newton(qp, opts)
    else:
        worst, y, lam, z, iterations, trace = _solve_projected_gradient(qp, opts)

    residuals = kkt_residuals(qp, y, lam, z)
    if opts.polish:
        polished = _polish(qp, y, np.maximum(z, 0.0))
        if polished is not None:
            res_pol = kkt_residuals(qp, polished[0], polished[1], polished[2])
            if res_pol.worst <= residuals.worst:
                y, lam, z = polished
                residuals = res_pol

    result = SolverResult(
        y=y,
        objective=qp.objective(y),
        iterations=iterations,
        kkt_residuals=residuals,
        wall_time=time.perf_counter() - start,
        objective_trace=trace,
    )
    if residuals.worst > opts.kkt_tolerance:
        raise MaxIterations(result)
    return result


# -- brute-force oracle --------------------------------------------------------


def oracle_solve(qp: ReducedQP, enumeration_limit: int = ORACLE_LIMIT) -> np.ndarray:
    """Global minimizer by exhaustive active-set enumeration.

    Every subset of the nonnegativity constraints is pinned at zero in turn;
    the remaining equality-constrained problem is solved by a dense
    factorization of the bordered system (least-norm on singular systems), and
    candidates violating primal or dual sign conditions are discarded.  The
    least objective among survivors is the unique optimum, exact up to dense
    roundoff, which makes this an independent check of the iterative solvers.

    Raises
    ------
    TooLarge
        If ``y_m`` exceeds ``enumeration_limit`` (the loop is ``2^y_m``).
    Infeasible
        If no active set produces a feasible candidate; cannot happen for a
        full-diagonal pattern with strictly positive target.
    """
    m = qp.y_m
    if m > enumeration_limit:
        raise TooLarge(m, enumeration_limit)
    q = np.diag(qp.hessian_diag)
    a = qp.a_eq.toarray()
    b, c = qp.b_eq, qp.linear
    n = qp.n

    bit_table = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
    best_y, best_val = None, np.inf
    with warnings.catch_warnings():
        # singular active sets are probed on purpose; lstsq handles them
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        for mask in range(1 << m):
            active = bit_table[mask]
            free = ~active
            f = int(free.sum())
            if f == 0:
                continue
            kkt = np.zeros((f + n, f + n))
            kkt[:f, :f] = q[np.ix_(free, free)]
            kkt[:f, f:] = a[:, free].T
            kkt[f:, :f] = a[:, free]
            rhs = np.concatenate([-c[free], b])
            try:
                sol = scipy.linalg.solve(kkt, rhs, assume_a="sym")
                if not np.all(np.isfinite(sol)):
                    raise scipy.linalg.LinAlgError
            except scipy.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            y_f, lam = sol[:f], -sol[f:]
            if np.abs(a[:, free] @ y_f - b).max() > 1e-8:
                continue
            if y_f.size and y_f.min() < -1e-9:
                continue
            y = np.zeros(m)
            y[free] = y_f
            z = qp.hessian_diag * y + c - a.T @ lam
            if active.any() and z[active].min() < -1e-9:
                continue
            value = qp.objective(y, include_constant=False)
            if value < best_val - 1e-15:
                best_val, best_y = value, np.maximum(y, 0.0)
    if best_y is None:
        raise Infeasible("no active set produced a feasible candidate")
    return best_y
