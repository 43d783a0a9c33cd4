"""Chain factories shared by the tests and by the scripts in ``tools/``."""

import numpy as np
import scipy.sparse as sp

from revmarkov import BenchmarkConfig, SparseStochasticMatrix, gen_random_chain, row_normalize


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


def edge_of_range_chain(seed):
    """A chain of 1-13 states with entries 10^U(-s, 0), s up to 330, so that
    some underflow or are subnormal.  Every third seed splits it into two
    diagonal blocks and a last state free to leak into both; every fourth
    scales each row by 1 +- 4e-13, which the stochastic constructor still
    accepts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 14))
    span = rng.choice([8, 30, 150, 300, 330])
    lo, hi = np.zeros(n, dtype=int), np.full(n, n)  # the columns each row may use
    if seed % 3 == 0 and n >= 3:
        cut = int(rng.integers(1, n - 1))
        lo[cut:-1], hi[:cut], hi[cut:-1] = cut, cut, n - 1
    cols = np.arange(n)
    allowed = (lo[:, None] <= cols) & (cols < hi[:, None])
    mask = (rng.random((n, n)) < rng.uniform(0.1, 0.9)) & allowed
    mask[cols, lo + (rng.random(n) * (hi - lo)).astype(int)] = True
    P = row_normalize(np.where(mask, 10.0 ** rng.uniform(-span, 0, (n, n)), 0.0))
    if seed % 4 == 0:
        csr = P.csr
        scale = np.repeat(1.0 + rng.choice([-4e-13, 4e-13], n), np.diff(csr.indptr))
        nudged = sp.csr_matrix((csr.data * scale, csr.indices, csr.indptr), csr.shape)
        P = SparseStochasticMatrix(nudged)
    return P


def leaky_expander_chain(leak=1e-6):
    """The 4,930-state expander ``gen_random_chain`` draws for n = 5,000
    (seed 1, case 0), made transient: each of its rows keeps ``1 - leak`` of
    its mass and leaks the rest into two absorbing states, the last two
    states, split at a uniform random fraction (seed 0)."""
    P = gen_random_chain(BenchmarkConfig(n_min=5000, n_max=5000, seed=1), 0).csr
    n = P.shape[0]
    split = np.random.default_rng(0).random(n)
    leaks = sp.csr_matrix(np.column_stack([leak * split, leak * (1.0 - split)]))
    top = sp.hstack([(1.0 - leak) * P, leaks])
    bottom = sp.hstack([sp.csr_matrix((2, n)), sp.identity(2)])
    return SparseStochasticMatrix(sp.vstack([top, bottom], format="csr"))
