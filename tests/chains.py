"""Chain factories shared by the tests and by ``tools/results_identity.py``."""

import numpy as np
import scipy.sparse as sp

from revmarkov import SparseStochasticMatrix, row_normalize


def two_blocks_with_transients(perturb=True, seed=0):
    """Two reversible blocks (3 and 4 states) plus 3 transient states."""
    rng = np.random.default_rng(seed)

    def reversible_block(k, s):
        gen = np.random.default_rng(s)
        W = gen.random((k, k))
        W = W + W.T + np.eye(k)
        return W / W.sum(axis=1, keepdims=True)

    A = reversible_block(3, seed + 1)
    B = reversible_block(4, seed + 2)
    if perturb:
        # push one block off reversibility, renormalize rows
        A = A + 0.2 * np.triu(rng.random((3, 3)), k=1)
        A = A / A.sum(axis=1, keepdims=True)
    P = np.zeros((10, 10))
    P[:3, :3] = A
    P[3:7, 3:7] = B
    for t in range(7, 10):
        row = rng.random(10) * 0.1
        row[t] += 0.3
        P[t] = row / row.sum()
    return SparseStochasticMatrix.from_dense(P)


def ring_chain(weights):
    """Periodic ring with the diagonal and both neighbours weighted by
    ``weights`` (length 3n), row-normalized."""
    n = weights.size // 3
    i = np.arange(n)
    rows = np.concatenate([i, i, i])
    cols = np.concatenate([i, (i + 1) % n, (i - 1) % n])
    return row_normalize(sp.coo_matrix((weights, (rows, cols)), shape=(n, n)))


def wide_span_chain(seed):
    """Irreducible chain on 2-11 states with entries spanning 1e-8 to 1,
    bipartite for every fourth seed; the edges i -> i+1 close a cycle."""
    rng = np.random.default_rng(seed)
    bipartite = seed % 4 == 3
    n = 2 * int(rng.integers(1, 6)) if bipartite else int(rng.integers(2, 12))
    idx = np.arange(n)
    mask = rng.random((n, n)) < 0.5
    if bipartite:
        mask &= (idx[:, None] - idx[None, :]) % 2 == 1
    mask[idx, (idx + 1) % n] = True
    return row_normalize(np.where(mask, 10.0 ** rng.uniform(-8, 0, (n, n)), 0.0))
