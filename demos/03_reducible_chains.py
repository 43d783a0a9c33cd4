"""Reducible chains: ergodic classes, transient states, per-class solves.

A chain with several ergodic classes has a whole polytope of stationary
vectors; detailed balance is decided inside each closed class, while
transient states carry no stationary mass and satisfy the balance equations
trivially.  The pipeline therefore takes the classes from the chain's
closed strongly connected components, solves one program per class, and
copies transient rows through unchanged.
"""

import numpy as np

from revmarkov import (
    SparseStochasticMatrix,
    ergodic_decomposition,
    nearest_sparse_reversible,
    stationary_mixture,
)

rng = np.random.default_rng(11)


def reversible_block(k, seed):
    gen = np.random.default_rng(seed)
    W = gen.random((k, k))
    W = W + W.T + np.eye(k)
    return W / W.sum(axis=1, keepdims=True)


# two closed blocks; block one pushed off reversibility
A = reversible_block(3, 1)
A = A + 0.3 * np.triu(rng.random((3, 3)), k=1)
A = A / A.sum(axis=1, keepdims=True)
B = reversible_block(4, 2)

P = np.zeros((10, 10))
P[:3, :3] = A
P[3:7, 3:7] = B
for t in range(7, 10):  # transient states leak into both blocks
    row = rng.random(10) * 0.1
    row[t] += 0.3
    P[t] = row / row.sum()
P = SparseStochasticMatrix.from_dense(P)

pi = stationary_mixture(P)
print("stationary vector (uniform start):")
print(np.array_str(pi.values, precision=4))
print("zero entries mark the transient states:", sorted(set(range(10)) - set(pi.support)))

decomposition = ergodic_decomposition(P, pi)
print(f"\nergodic classes: {[c.tolist() for c in decomposition.classes]}")
print(f"transient states: {decomposition.transient.tolist()}")

R, diag = nearest_sparse_reversible(P)
print(f"\nclasses solved: {diag.num_classes}")
for report in diag.per_class:
    print(
        f"  class {report.indices.tolist()}: {report.y_m} variables, "
        f"distance {report.distance:.4f}, {report.wall_time * 1e3:.1f} ms"
    )
print(f"global distance: {diag.distance:.4f}")
print("squared class distances add up:",
      np.isclose(diag.distance**2, sum(c.distance**2 for c in diag.per_class)))

delta = R.toarray() - P.toarray()
print("\nlargest change per block:")
print(f"  perturbed block rows 0-2: {np.abs(delta[:3]).max():.4f}")
print(f"  clean block rows 3-6:     {np.abs(delta[3:7]).max():.2e}")
print(f"  transient rows 7-9:       {np.abs(delta[7:]).max():.1f} (copied verbatim)")
