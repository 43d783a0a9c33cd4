"""Mini ensemble run: distances, baselines, residuals, and support growth.

A desk-scale version of the benchmark loop (pass --full for the 100-case
ensemble).  Every case must satisfy the same properties: residuals at
essentially machine precision, optimal distance below the adjustment
baseline, and a support that never shrinks.
"""

import sys

import numpy as np

from revmarkov import BenchmarkConfig, run_benchmark

full = "--full" in sys.argv
cfg = BenchmarkConfig(num_cases=100 if full else 10, seed=20250807)
print(
    f"running {cfg.num_cases} cases, {cfg.n_min} <= n <= {cfg.n_max}, "
    f"about {cfg.alpha:.0f}n nonzeros each"
)

rows = run_benchmark(cfg)
ok = [r for r in rows if "error" not in r]
print(f"solved {len(ok)}/{len(rows)} cases\n")

print(f"{'case':>4} {'n':>4} {'nnz':>5} {'nnz(R)':>6} {'dist':>7} {'MH':>7} {'worst res':>10} {'time':>7}")
for r in ok:
    worst = max(
        r["residual_stochasticity"],
        r["residual_detailed_balance"],
        r["residual_stationarity"],
    )
    print(
        f"{r['case']:>4} {r['n']:>4} {r['nnz_p']:>5} {r['nnz_r']:>6} "
        f"{r['distance']:>7.3f} {r['mh_distance']:>7.3f} {worst:>10.2e} "
        f"{r['solve_seconds']:>6.2f}s"
    )

dist = np.array([r["distance"] for r in ok])
mh = np.array([r["mh_distance"] for r in ok])
print(f"\ndistance:  median {np.median(dist):.2f}, range [{dist.min():.2f}, {dist.max():.2f}]")
print(f"baseline:  median {np.median(mh):.2f}, range [{mh.min():.2f}, {mh.max():.2f}]")
# the slack of `revmarkov bench`: a row sum may overshoot 1 by up to 1e-12,
# which the baseline keeps and the nearest chain does not, so the distance
# may exceed the baseline's by about that much
print(f"baseline dominance holds in every case: {bool(np.all(dist <= mh + 1e-10))}")
growth = np.array([r["nnz_r"] / r["nnz_p"] for r in ok])
print(f"support growth factors: median {np.median(growth):.2f}")
