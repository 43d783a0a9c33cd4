"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line
in the terminal summary (see conftest).  Tolerances are fixed here, not
calibrated at runtime."""

import time

import numpy as np

import dense_oracle
from revmarkov import (
    BenchmarkConfig,
    SparseStochasticMatrix,
    build_reduced_qp,
    nearest_sparse_reversible,
    reversibilize,
    row_normalize,
    run_benchmark,
    solve_qp,
    strongly_connected_components,
)

from chains import two_blocks_with_transients
from test_qp_build import random_instance
from test_qp_solve import small_instances


def test_criterion_1_worked_example_exact(ring4, acceptance_log, tmp_path):
    """Metropolis-Hastings adjustment of the 4-state ring reproduces the
    known adjusted matrix entrywise, in under a millisecond."""
    T = reversibilize(ring4.T, ring4.pi)
    error = np.abs(T.toarray() - ring4.adjusted).max()

    timings = []
    for _ in range(7):
        t0 = time.perf_counter()
        reversibilize(ring4.T, ring4.pi)
        timings.append(time.perf_counter() - t0)
    best = min(timings)

    # same result through the command line subcommand
    from revmarkov import io as rmio
    from revmarkov.cli import main

    matrix = tmp_path / "ring.mtx"
    pi_file = tmp_path / "pi.txt"
    out = tmp_path / "adjusted.mtx"
    rmio.write_matrix(matrix, ring4.T)
    np.savetxt(pi_file, ring4.pi.values, fmt="%.17e")
    code = main(["mh", str(matrix), "--pi", str(pi_file), "--out", str(out)])
    cli_error = np.abs(rmio.read_matrix(out).toarray() - ring4.adjusted).max()

    ok = error <= 1e-15 and cli_error <= 1e-15 and code == 0 and best < 1e-3
    acceptance_log.record(
        1,
        "4x4 worked example reproduced exactly",
        ok,
        f"max error {error:.2e} (cli {cli_error:.2e}), best runtime {best * 1e3:.3f} ms",
    )
    assert error <= 1e-15
    assert cli_error <= 1e-15 and code == 0
    assert best < 1e-3


def test_criterion_2_butane_pipeline(butane, acceptance_log):
    """Desk-scale torsion chain: distance band, baseline ratio, residuals,
    runtime."""
    t0 = time.perf_counter()
    P = row_normalize(butane.counts)
    R, diag = nearest_sparse_reversible(P)
    pipeline_seconds = time.perf_counter() - t0
    total_seconds = butane.simulate_seconds + pipeline_seconds

    distance = diag.distance
    ratio = distance / diag.mh_distance if diag.mh_distance > 0 else np.inf
    residual_ok = max(diag.residuals) <= 1e-10
    ratio_ok = distance <= 0.6 * diag.mh_distance
    band_ok = 0.01 <= distance <= 0.05
    runtime_ok = total_seconds < 300.0

    acceptance_log.record(
        2,
        "torsion-chain pipeline at 5e7 steps",
        band_ok and ratio_ok and residual_ok and runtime_ok,
        f"|Delta|={distance:.6f} (band [0.01, 0.05] {'ok' if band_ok else 'MISSED'}), "
        f"ratio {ratio:.3f} <= 0.6 {'ok' if ratio_ok else 'MISSED'}, "
        f"worst residual {max(diag.residuals):.2e}, "
        f"runtime {total_seconds:.1f} s",
    )
    assert residual_ok, f"residuals {diag.residuals} exceed 1e-10"
    assert ratio_ok, f"distance {distance} exceeds 0.6 x MH {diag.mh_distance}"
    assert runtime_ok, f"runtime {total_seconds:.1f}s exceeds 5 minutes"
    # At this trajectory length the lag-1 counts of the wrapped 1d walk are
    # flux-balanced up to the net winding number, so the estimated chain sits
    # much closer to reversible than the band anticipates.
    assert band_ok, (
        f"|Delta|_F = {distance:.6f} lies outside [0.01, 0.05]; the chain is "
        "closer to reversible than the band allows"
    )


def test_criterion_3_oracle_equivalence(acceptance_log):
    """Dual Newton matches exhaustive active-set enumeration on 50 random
    small instances within 1e-7, in under 30 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for _, _, _, qp in small_instances(50, max_y=12, start_seed=1000):
        result = solve_qp(qp)
        reference = dense_oracle.oracle_solve(qp)
        worst = max(worst, float(np.abs(result.y - reference).max()))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0 and count == 50
    acceptance_log.record(
        3,
        "solver equals brute-force oracle on 50 small instances",
        ok,
        f"worst deviation {worst:.2e}, {elapsed:.1f} s",
    )
    assert count == 50
    assert worst <= 1e-7
    assert elapsed < 30.0


def test_criterion_4_dense_formulation_equivalence(acceptance_log):
    """Reduced program coincides with the explicit Kronecker-product
    formulation entrywise (n <= 5)."""
    worst = 0.0
    rng = np.random.default_rng(0)
    for seed in range(12):
        n = 2 + seed % 4  # 2..5
        P, pi, pattern = random_instance(n, 500 + seed)
        qp = build_reduced_qp(P, pi, pattern)
        maps, Q, c, A_eq, pi_hat = dense_oracle.dense_qp(
            P.toarray(), pi.values, pattern
        )
        worst = max(worst, float(np.abs(Q - np.diag(qp.hessian_diag)).max()))
        worst = max(worst, float(np.abs(c - qp.linear).max()))
        worst = max(worst, float(np.abs(A_eq - qp.a_eq.toarray()).max()))
        worst = max(worst, float(np.abs(pi_hat - qp.b_eq).max()))
        operator = dense_oracle.full_operator(maps, pi_hat)
        p = dense_oracle.vec(P.toarray())
        for _ in range(3):
            y = rng.random(qp.y_m)
            dense_objective = 0.5 * float(np.sum((operator @ y - p) ** 2))
            worst = max(worst, abs(dense_oracle.objective(qp, y, P) - dense_objective))
            dense_constraint = A_eq @ y - pi_hat
            worst = max(
                worst, float(np.abs((qp.a_eq @ y - qp.b_eq) - dense_constraint).max())
            )
    ok = worst <= 1e-13
    acceptance_log.record(
        4,
        "reduced program equals dense Kronecker formulation",
        ok,
        f"worst entrywise deviation {worst:.2e}",
    )
    assert worst <= 1e-13


def test_criterion_5_strong_convexity(acceptance_log):
    """Smallest eigenvalue of the dense-oracle Hessian is strictly positive
    on 50 random small instances."""
    smallest = np.inf
    for seed in range(50):
        n = 2 + seed % 5  # 2..6
        P, pi, pattern = random_instance(n, 700 + seed)
        _, Q, *_ = dense_oracle.dense_qp(P.toarray(), pi.values, pattern)
        smallest = min(smallest, float(np.linalg.eigvalsh(Q).min()))
    ok = smallest > 1e-12
    acceptance_log.record(
        5,
        "Hessian strictly positive definite on 50 instances",
        ok,
        f"smallest eigenvalue {smallest:.6f}",
    )
    assert smallest > 1e-12


def test_criterion_6_benchmark_properties(acceptance_log):
    """Full desk-scale ensemble: residuals, baseline dominance, support
    growth, per-case time."""
    cfg = BenchmarkConfig(num_cases=100, n_min=100, n_max=300, alpha=5.0, seed=20250807)
    t0 = time.perf_counter()
    rows = run_benchmark(cfg)
    elapsed = time.perf_counter() - t0

    failures = [r for r in rows if "error" in r]
    worst_residual = max(
        max(
            r["residual_stochasticity"],
            r["residual_detailed_balance"],
            r["residual_stationarity"],
        )
        for r in rows
        if "error" not in r
    )
    dominance = all(r["distance"] <= r["mh_distance"] + 1e-10 for r in rows if "error" not in r)
    growth = all(r["nnz_r"] >= r["nnz_p"] for r in rows if "error" not in r)
    slowest = max(r["solve_seconds"] for r in rows if "error" not in r)
    distances = np.array([r["distance"] for r in rows if "error" not in r])
    mh = np.array([r["mh_distance"] for r in rows if "error" not in r])

    ok = (
        not failures
        and worst_residual <= 1e-10
        and dominance
        and growth
        and slowest < 5.0
        and elapsed < 600.0
    )
    acceptance_log.record(
        6,
        "100-case random ensemble properties",
        ok,
        f"worst residual {worst_residual:.2e}, slowest case {slowest:.2f} s, "
        f"total {elapsed:.0f} s, distances [{distances.min():.1f}, {distances.max():.1f}], "
        f"baseline [{mh.min():.1f}, {mh.max():.1f}]",
    )
    assert not failures
    assert worst_residual <= 1e-10
    assert dominance
    assert growth
    assert slowest < 5.0
    assert elapsed < 600.0
    # the distance magnitudes live in the expected bands for this ensemble
    assert 2.5 <= np.median(distances) <= 7.0
    assert 9.0 <= np.median(mh) <= 22.0


def test_criterion_7_idempotence(acceptance_log, reversible_factory, chain_factory):
    """Reversible inputs are fixed points; running twice equals running once."""
    worst_fixed = 0.0
    for seed in range(5):
        P, _ = reversible_factory(9, 800 + seed)
        _, diag = nearest_sparse_reversible(P)
        worst_fixed = max(worst_fixed, diag.distance)

    worst_repeat = 0.0
    for seed in range(5):
        P = chain_factory(11, 900 + seed)
        R, _ = nearest_sparse_reversible(P)
        R2, diag2 = nearest_sparse_reversible(R)
        worst_repeat = max(
            worst_repeat,
            diag2.distance,
            float(np.abs(R2.toarray() - R.toarray()).max()),
        )
    ok = worst_fixed <= 1e-9 and worst_repeat <= 1e-9
    acceptance_log.record(
        7,
        "reversible fixed point and idempotence",
        ok,
        f"fixed-point distance {worst_fixed:.2e}, repeat deviation {worst_repeat:.2e}",
    )
    assert worst_fixed <= 1e-9
    assert worst_repeat <= 1e-9


def test_criterion_8_reducibility_handling(ring4, acceptance_log):
    """Two ergodic classes plus three transient states: only ergodic rows
    move, diagnostics report E = 2, and the adjusted ring splits into three
    components."""
    P = two_blocks_with_transients(perturb=True, seed=4)
    R, diag = nearest_sparse_reversible(P)
    transient_untouched = bool(
        np.array_equal(R.toarray()[7:], P.toarray()[7:])
    )
    classes_ok = diag.num_classes == 2 and diag.transient.tolist() == [7, 8, 9]

    adjusted = SparseStochasticMatrix.from_dense(ring4.adjusted)
    components = strongly_connected_components(adjusted)
    split_ok = [c.tolist() for c in components] == [[0], [1], [2, 3]]

    ok = transient_untouched and classes_ok and split_ok
    acceptance_log.record(
        8,
        "reducible chain handling",
        ok,
        f"E={diag.num_classes}, transient untouched={transient_untouched}, "
        f"adjusted ring components={[len(c) for c in components]}",
    )
    assert classes_ok
    assert transient_untouched
    assert split_ok
