"""Dense reference construction of the reduced program.

Builds the commutation matrix, the half-weighted upper-triangle projector,
and the Kronecker scaling explicitly, then forms the quadratic program by
plain matrix products.  Everything here is deliberately naive (dense, n^2
vectors) so it cannot share a bug with the sparse closed-form assembly it is
used to validate.
"""

import numpy as np

from revmarkov import IndexMaps, build_index_maps


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


def dense_qp(P_dense: np.ndarray, pi_values: np.ndarray, pattern):
    """Quadratic program data assembled from the explicit operators.

    Returns (maps, Q, c, A_eq, b_eq) with Q = A^T A, c = -A^T p,
    A_eq = (pi_hat^T kron I)(I + K) Pi, b_eq = pi_hat.
    """
    maps = build_index_maps(pattern)
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
