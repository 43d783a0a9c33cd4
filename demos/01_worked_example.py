"""A 4-state chain walked through by hand.

The chain pushes 1 -> 2 -> 3 -> 1 deterministically and splits state 3
between returning to 1 and bouncing off state 4.  It is irreducible and has
the stationary vector (1/5, 1/5, 2/5, 1/5), but it cannot be reversible: the
cycle 1 -> 2 -> 3 -> 1 has no reverse path at all.  Metropolis-Hastings
adjustment removes every non-reciprocated edge, which here disconnects the
chain into three pieces.
"""

import numpy as np

from revmarkov import (
    SparseStochasticMatrix,
    detailed_balance_residual,
    is_irreducible,
    kolmogorov_cycle_check,
    reversibilize,
    stationary_mixture,
    strongly_connected_components,
)

T = SparseStochasticMatrix.from_dense(
    [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
print("transition matrix:")
print(T.toarray())
print("irreducible:", is_irreducible(T))

pi = stationary_mixture(T)
print("\nstationary vector:", pi.values)

check = kolmogorov_cycle_check(T)
print("\ncycle check:")
print("  violating cycle:", tuple(v + 1 for v in check.cycle))
print("  forward product:", check.forward_product)
print("  reverse product:", check.reverse_product)
print("  -> the chain cannot be made reversible without changing its graph")

adjusted = reversibilize(T, pi)
print("\nMetropolis-Hastings adjustment:")
print(adjusted.toarray())
print("balance residual:", detailed_balance_residual(adjusted, pi))

components = strongly_connected_components(adjusted)
print(
    "components after adjustment:",
    [tuple(int(v) + 1 for v in c) for c in components],
)
print("irreducible:", is_irreducible(adjusted))

pieces = np.array([len(c) for c in components])
print(f"\nthe adjustment split one irreducible chain into {pieces.size} pieces;")
print("the quadratic-programming route (demo 02) avoids exactly this.")
