"""Dense reference construction of the reduced program.

Builds the commutation matrix, the half-weighted upper-triangle projector,
and the Kronecker scaling explicitly, then forms the quadratic program by
plain matrix products.  Everything here is deliberately naive (dense, n^2
vectors) so it cannot share a bug with the sparse closed-form assembly it is
used to validate.  :func:`oracle_solve` minimizes the reduced program by
enumerating every active set, independently of the dual Newton solver, and
:func:`gth_stationary` is the dense stationary vector the sparse solve is
held to.  The small helpers at the top give a pattern's positions and its
variable indexing, CSR buffer equality, bit equality of two hot-loop
results, the dense ``Y`` of reduced variables and the full objective value,
for the tests to compare against.  :func:`reference_newton_pcg` and
:func:`reference_jump_chain_sweep` are the plain loops of the two hot loops,
which the library's buffered versions must match bit for bit, and
:func:`reference_random_chain` is the random-ensemble generator built from
SciPy's sparse operations, which ``gen_random_chain`` must match bit for bit.
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg.blas import dger

from revmarkov import (
    DegenerateInstance,
    IndexMaps,
    row_normalize,
    strongly_connected_components,
)
from revmarkov import experiments
from revmarkov.chain_analysis import _SWEEP_BUDGET, _SWEEP_CHECK, _SWEEP_FLOOR, _SWEEP_WEIGHT
from revmarkov.qp_solve import _CG_FORCING, _CG_MAX_ITERATIONS, _CG_TOLERANCE
from revmarkov.sparse_core import _edge_rows, _pattern_table

#: Active-set enumeration cap for :func:`oracle_solve`.
ORACLE_LIMIT = 16


def pattern_positions(pattern) -> set:
    """Set of the ``(row, col)`` positions of a pattern."""
    coo = pattern.csr.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def index_maps(pattern) -> IndexMaps:
    """Variable indexing of a symmetric full-diagonal pattern, as
    :func:`~revmarkov.build_reduced_qp` takes it; raises its pattern errors."""
    rows = _edge_rows(pattern.csr)
    i, j, *_ = _pattern_table(pattern.n, rows, pattern.csr.indices, rows[:0], rows[:0], np.empty(0))
    return IndexMaps(n=pattern.n, upper_rows=i, upper_cols=j)


def same_csr(a, b) -> bool:
    """Whether two CSR matrices have the same shape and identical buffers,
    as two equal matrices in canonical form do."""
    return a.shape == b.shape and all(
        np.array_equal(getattr(a, buf), getattr(b, buf)) for buf in ("indptr", "indices", "data")
    )


def same_result(got, expected) -> bool:
    """Whether two ``(vector or None, count, residual, *flags)`` results of the
    hot loops agree bit for bit."""
    (x, count, residual, *flags), (x_ref, count_ref, residual_ref, *flags_ref) = got, expected
    same_x = x is x_ref is None or (
        x is not None and x_ref is not None and x.tobytes() == x_ref.tobytes()
    )
    same_counts = count == count_ref and flags == flags_ref
    return same_x and same_counts and residual.hex() == residual_ref.hex()


def symmetric_from_upper(y, maps: IndexMaps) -> np.ndarray:
    """Dense symmetric ``Y`` with the upper-triangle entries ``y`` at the
    variable positions of ``maps`` and zeros elsewhere."""
    Y = np.zeros((maps.n, maps.n))
    Y[maps.upper_rows, maps.upper_cols] = y
    Y[maps.upper_cols, maps.upper_rows] = y
    return Y


def objective(qp, y, P) -> float:
    """Full objective ``1/2 y^T Q y + c^T y + 1/2 ||P||_F^2`` of the reduced
    program of the chain ``P``, which is ``1/2 ||X - P||_F^2`` for the ``X``
    recovered from ``y``; entries of ``P`` outside the pattern count in the
    constant."""
    y = np.asarray(y, dtype=float).ravel()
    value = 0.5 * float(y @ (qp.hessian_diag * y)) + float(qp.linear @ y)
    return value + 0.5 * float(np.sum(P.csr.data**2))


def vec(Y: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(Y, dtype=float).ravel(order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape((n, n), order="F")


def commutation_matrix(n: int) -> np.ndarray:
    """K with K vec(Y) = vec(Y^T)."""
    K = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            K[j * n + i, i * n + j] = 1.0
    return K


def projector(maps: IndexMaps) -> np.ndarray:
    """Upper-triangle embedding with weight 1 off the diagonal, 1/2 on it."""
    n = maps.n
    P = np.zeros((n * n, maps.y_m))
    for k, (i, j) in enumerate(zip(maps.upper_rows, maps.upper_cols)):
        P[j * n + i, k] = 0.5 if i == j else 1.0
    return P


def kron_scaling(pi_hat: np.ndarray) -> np.ndarray:
    return np.kron(np.diag(pi_hat), np.diag(1.0 / pi_hat))


def full_operator(maps: IndexMaps, pi_hat: np.ndarray) -> np.ndarray:
    """The scaled symmetrization operator mapping y to the vectorized scaled
    matrix, built as an explicit n^2 x y_M product."""
    n = maps.n
    K = commutation_matrix(n)
    Pi = projector(maps)
    return kron_scaling(pi_hat) @ (np.eye(n * n) + K) @ Pi


def gth_stationary(P) -> np.ndarray:
    """Stationary vector of an irreducible chain by dense Grassmann-Taksar-
    Heyman elimination: entrywise accurate for any spectral gap, since it
    never subtracts.

    State ``k`` is folded into states ``0..k-1`` by one in-place BLAS rank-1
    update of the C-ordered rows ``A[:k]`` (an F-ordered ``n x k`` array to
    ``dger``), with the update row zero from column ``k`` on, so no ``k x k``
    temporary is made.
    """
    A = P.toarray()
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise ValueError("chain is not irreducible")
        A[:k, k] /= s
        row = np.zeros(n)
        row[:k] = A[k, :k]
        dger(1.0, row, A[:k, k], a=A[:k].T, overwrite_a=True)
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = A[0, k] + pi[1:k] @ A[1:k, k]
    return pi / pi.sum()


def dense_qp(P_dense: np.ndarray, pi_values: np.ndarray, pattern):
    """Quadratic program data assembled from the explicit operators.

    Returns (maps, Q, c, A_eq, b_eq) with Q = A^T A, c = -A^T p,
    A_eq = (pi_hat^T kron I)(I + K) Pi, b_eq = pi_hat.
    """
    maps = index_maps(pattern)
    n = maps.n
    pi_hat = np.sqrt(np.asarray(pi_values, dtype=float))
    A = full_operator(maps, pi_hat)
    p = vec(P_dense)
    Q = A.T @ A
    c = -(A.T @ p)
    K = commutation_matrix(n)
    Pi = projector(maps)
    A_eq = np.kron(pi_hat[None, :], np.eye(n)) @ (np.eye(n * n) + K) @ Pi
    return maps, Q, c, A_eq, pi_hat


def unreduced_constraints(pattern):
    """Constraint operators of the full n^2-variable formulation: the
    eigenvector map, the asymmetry map, and the off-pattern mask."""
    n = pattern.n
    K = commutation_matrix(n)
    mask = np.ones((n, n))
    dense = pattern.csr.toarray()
    mask[dense > 0] = 0.0

    def eigenvector_map(pi_hat):
        return np.kron(pi_hat[None, :], np.eye(n))

    asymmetry = np.eye(n * n) - K
    pattern_mask = np.diag(vec(mask))
    return eigenvector_map, asymmetry, pattern_mask


def kkt_certificate(qp, y) -> float:
    """Worst KKT violation of ``y`` for the reduced program ``qp``.

    Dense NumPy only, independent of the solver's normal equations: the
    equality multipliers are the least-squares fit of stationarity on the
    support of ``y``, where the bound multipliers must vanish, and the bound
    multipliers are what stationarity then leaves.  Returns the largest of
    the equality residual, the bound violation of ``y``, the bound
    multipliers on the support and their negative part off it.
    """
    a = qp.a_eq.toarray()
    y = np.asarray(y, dtype=float)
    g = qp.hessian_diag * y + qp.linear
    support = y > 0.0
    lam = np.linalg.lstsq(a[:, support].T, g[support], rcond=None)[0]
    z = g - a.T @ lam
    return max(
        float(np.abs(a @ y - qp.b_eq).max()),
        float(np.max(-y, initial=0.0)),
        float(np.abs(z[support]).max(initial=0.0)),
        float(np.max(-z[~support], initial=0.0)),
    )


def least_squares_multipliers(qp, y):
    """Equality multipliers ``lam`` fitted by least squares to stationarity
    on the support of ``y``, where the bound multipliers vanish at a
    minimizer, and the bound multipliers ``z = g - A^T lam`` they leave.

    Solves ``A_S A_S^T lam = A_S g_S`` with ``g = Q y + c`` by a sparse
    direct solve, independent of the solver's Newton steps; unlike
    :func:`kkt_certificate` it stays sparse, so it serves large instances.
    """
    y = np.asarray(y, dtype=float)
    support = y > 0.0
    g = qp.hessian_diag * y + qp.linear
    a_s = qp.a_eq.tocsc()[:, support]
    lam = scipy.sparse.linalg.spsolve((a_s @ a_s.T).tocsc(), a_s @ g[support])
    return lam, g - qp.a_eq.T @ lam


def oracle_solve(qp) -> np.ndarray:
    """Global minimizer by exhaustive active-set enumeration.

    Every subset of the nonnegativity constraints is pinned at zero in turn;
    the remaining equality-constrained problem is solved by a dense
    factorization of the bordered system (least-norm on singular systems), and
    candidates violating primal or dual sign conditions are discarded.  The
    least objective among survivors is the unique optimum, exact up to dense
    roundoff, which makes this an independent check of the iterative solver.

    Raises ``ValueError`` when ``y_m`` exceeds ``ORACLE_LIMIT`` (the loop is
    ``2^y_m``) and when no active set produces a feasible candidate, which
    cannot happen for a full-diagonal pattern with strictly positive target.
    """
    m = qp.y_m
    if m > ORACLE_LIMIT:
        raise ValueError(f"{m} variables exceed the enumeration bound {ORACLE_LIMIT}")
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
            # the constant 1/2 ||P||_F^2 does not change the minimizer
            value = 0.5 * float(y @ (qp.hessian_diag * y)) + float(c @ y)
            if value < best_val - 1e-15:
                best_val, best_y = value, np.maximum(y, 0.0)
    if best_y is None:
        raise ValueError("no active set produced a feasible candidate")
    return best_y


def reference_newton_pcg(normal, diag: np.ndarray, rhs: np.ndarray, stop_loose):
    """The plain loop that ``qp_solve._newton_pcg`` must match bit for bit.

    Solve ``S x = rhs`` by Jacobi-preconditioned conjugate gradients for a
    symmetric positive semidefinite ``S``.

    ``diag`` is the diagonal of ``S``.  Returns ``(x, iterations, residual,
    tight)`` with ``residual = ||r||_inf`` of the recurred residual; ``x`` is
    ``None`` when the iteration breaks down (a zero diagonal entry, a
    direction of nonpositive curvature, or an ``r^T D^-1 r`` that underflows
    to zero) or misses ``_CG_TOLERANCE`` within ``min(_CG_MAX_ITERATIONS, 4 *
    rhs.size)`` iterations.  The first iterate that meets only
    ``_CG_FORCING`` goes to ``stop_loose``, and is returned with ``tight``
    false if that returns true.  ``normal`` is a SciPy CSR matrix or the CSR
    arrays of one, and its products run through ``@``.
    """
    normal = sp.csr_matrix((normal.data, normal.indices, normal.indptr), shape=normal.shape)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    residual = float(np.abs(r).max())
    target, loose_target = _CG_TOLERANCE * residual, _CG_FORCING * residual
    if residual <= target:
        return x, 0, residual, True
    if not diag.all():
        return None, 0, residual, False
    inv_diag = 1.0 / diag
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    if not rz:
        return None, 0, residual, False
    loose_pending = True
    for iteration in range(1, min(_CG_MAX_ITERATIONS, 4 * rhs.size) + 1):
        s = normal @ p
        curvature = float(p @ s)
        if curvature <= 0.0:
            return None, iteration, residual, False
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * s
        residual = float(np.abs(r).max())
        if residual <= target:
            return x, iteration, residual, True
        if loose_pending and residual <= loose_target:
            loose_pending = False
            if stop_loose(x):
                return x, iteration, residual, False
        z = inv_diag * r
        rz, rz_old = float(r @ z), rz
        if not rz:
            return None, iteration, residual, False
        p = z + (rz / rz_old) * p
    return None, iteration, residual, False


def reference_jump_chain_sweep(O, d: np.ndarray):
    """The plain loop that ``chain_analysis._jump_chain_sweep`` must match
    bit for bit.

    Damped power iteration ``x <- (1 - w) x + w O^T D^-1 x`` on the jump
    chain ``D^-1 O``, with ``w = _SWEEP_WEIGHT``; its fixed point is
    ``x = pi * d``.  Each step starts state ``j``'s sum at ``(1 - w) x_j``
    and adds ``O_ij (w / d_i) x_i`` over the stored ``O_ij`` in ascending
    ``i``, one term at a time.  The residual ``max_j |y - x|_j / (w x_j)``
    is checked every ``_SWEEP_CHECK`` steps: the sweep is kept when it
    crosses ``_SWEEP_FLOOR`` between two checks, and it declines as soon as
    the contraction between two checks projects more than ``_SWEEP_BUDGET``
    steps in all, or a start already at the floor shows no contraction.

    Returns ``(pi, steps, residual)``, ``pi`` scaled so that ``pi_0 = 1``
    and ``None`` when declined.
    """
    n, stay = d.size, 1.0 - _SWEEP_WEIGHT
    # the terms into each state j, as (i, O_ij w / d_i) in ascending i
    inflow = [[] for _ in range(n)]
    for i in range(n):
        for k in range(O.indptr[i], O.indptr[i + 1]):
            inflow[O.indices[k]].append((i, float(O.data[k]) * (_SWEEP_WEIGHT / float(d[i]))))
    x = d / d.sum()
    for step in range(_SWEEP_BUDGET + 1):
        xs, y = x.tolist(), np.empty(n)
        for j in range(n):
            total = stay * xs[j]
            for i, term in inflow[j]:
                total += term * xs[i]
            y[j] = total
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
        x = y


def reference_random_chain(cfg, case_index: int, attempt: int = 0):
    """The random chain that ``experiments.gen_random_chain`` must match bit
    for bit, built from SciPy's sparse operations.

    The same draws from the case's stream (``experiments._case_rng``, looked
    up at call time so a test can replace it) give the distinct keys by
    ``np.unique``; COO to CSR gives the support, whose strongly connected
    components come from :func:`strongly_connected_components`; fancy
    indexing restricts it to the largest one (a tie goes to the one with
    the smallest first state), and :func:`row_normalize` normalizes that.
    """
    rng = experiments._case_rng(cfg.seed, case_index, attempt)
    n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
    flat = np.unique(rng.integers(0, n * n, size=int(cfg.alpha * n)))
    values = rng.random(flat.size)
    raw = sp.coo_matrix((values, (flat // n, flat % n)), shape=(n, n)).tocsr()
    components = strongly_connected_components(raw)
    largest = max(len(c) for c in components)
    if largest < 2:
        raise DegenerateInstance(
            f"largest strongly connected component has {largest} state(s)"
        )
    members = min((c for c in components if len(c) == largest), key=lambda c: int(c[0]))
    return row_normalize(raw[members][:, members])
