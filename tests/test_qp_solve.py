import logging
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from revmarkov import (
    BenchmarkConfig,
    KKTResiduals,
    LengthMismatch,
    MaxIterations,
    PipelineOptions,
    ProbabilityVector,
    SolverOptions,
    SparseStochasticMatrix,
    SparsityPattern,
    build_reduced_qp,
    gen_random_chain,
    kkt_residuals,
    mh_baseline_distance,
    nearest_sparse_reversible,
    reversibilize,
    row_normalize,
    solve_qp,
    stationary_mixture,
    symmetrized_pattern,
    unscale_solution,
)

from revmarkov.qp_solve import _dual_gain, _newton_pcg, _normal_matrix, _normal_solve
from revmarkov.sparse_core import _scipy

from chains import ring_chain, wide_span_chain
from dense_oracle import (
    kkt_certificate,
    least_squares_multipliers,
    objective,
    oracle_solve,
    reference_newton_pcg,
    same_result,
)
from test_qp_build import random_instance


def small_instances(count, max_y=12, start_seed=0):
    """Mixed stream of full and sparse symmetric-pattern instances, n <= 6."""
    made = 0
    seed = start_seed
    while made < count:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        P, pi, pattern = random_instance(n, seed)
        if n <= 4 and seed % 2 == 0:
            pattern = SparsityPattern(np.ones((n, n)))
        qp = build_reduced_qp(P, pi, pattern)
        seed += 1
        if qp.y_m > max_y:
            continue
        made += 1
        yield P, pi, pattern, qp


class TestSolveQP:
    def test_reversible_input_attains_zero(self, reversible_factory):
        P, pi = reversible_factory(6, 4)
        qp = build_reduced_qp(P, pi, symmetrized_pattern(P))
        result = solve_qp(qp)
        distance = np.sqrt(max(2.0 * objective(qp, result.y, P), 0.0))
        assert distance <= 1e-10
        R = unscale_solution(result.y, qp.maps, qp.pi_hat)
        assert np.abs(R.toarray() - P.toarray()).max() <= 1e-10

    def test_matches_oracle_on_small_instances(self):
        for _, _, _, qp in small_instances(12):
            result = solve_qp(qp)
            reference = oracle_solve(qp)
            assert np.abs(result.y - reference).max() <= 1e-7

    def test_kkt_residuals_meet_tolerance(self):
        opts = SolverOptions(kkt_tolerance=1e-10)
        for _, _, _, qp in small_instances(8, start_seed=100):
            result = solve_qp(qp, opts)
            assert result.kkt_residuals.worst <= 1e-10
            assert result.y.min() >= -1e-10
            assert np.abs(qp.a_eq @ result.y - qp.b_eq).max() <= 1e-10

    def test_variants_agree_on_100_instances(self):
        # the unique minimizer: certified by dense KKT algebra everywhere and
        # matched against the enumeration oracle where that is cheap
        certificate, oracle_gap, compared = 0.0, 0.0, 0
        for seed in range(100):
            P, pi, pattern = random_instance(2 + seed % 5, 40 + seed)
            qp = build_reduced_qp(P, pi, pattern)
            y = solve_qp(qp).y
            certificate = max(certificate, kkt_certificate(qp, y))
            if qp.y_m <= 10:
                oracle_gap = max(oracle_gap, float(np.abs(y - oracle_solve(qp)).max()))
                compared += 1
        assert certificate <= 1e-12
        assert compared >= 20
        assert oracle_gap <= 1e-9

    def test_beats_feasible_comparison_points(self, chain_factory):
        # optimality: no feasible point offered by the baselines can do better
        P = chain_factory(7, 55)
        pi = stationary_mixture(P)
        pattern = symmetrized_pattern(P)
        qp = build_reduced_qp(P, pi, pattern)
        result = solve_qp(qp)
        assert objective(qp, result.y, P) <= objective(qp, mh_point(qp, pattern, pi), P) + 1e-12
        distance = np.sqrt(max(2.0 * objective(qp, result.y, P), 0.0))
        assert distance <= mh_baseline_distance(P, pi) + 1e-10

    def test_max_iterations_carries_best_iterate(self):
        # the optimum has an active bound, so one Newton step cannot finish
        P, pi, pattern = random_instance(6, 20)
        qp = build_reduced_qp(P, pi, pattern)
        assert (solve_qp(qp).y == 0.0).any()
        with pytest.raises(MaxIterations) as err:
            solve_qp(qp, SolverOptions(max_iterations=1, kkt_tolerance=1e-12))
        result = err.value.result
        assert result.y.shape == (qp.y_m,)
        assert result.kkt_residuals.worst > 1e-12
        failed = result.kkt_residuals.primal_eq
        assert str(err.value) == (
            f"KKT residuals above 1e-12 (primal_eq {failed:.3e}) after 1 of at most 1 Newton steps"
        )

    def test_kkt_residuals_check_the_lengths(self):
        # the products run SciPy's kernels, which read a short vector past its
        # end; every length is checked before them
        P, pi, pattern = random_instance(6, 20)
        qp = build_reduced_qp(P, pi, pattern)
        y, lam, z = np.zeros(qp.y_m), np.zeros(qp.n), np.zeros(qp.y_m)
        assert kkt_residuals(qp, y, lam, z) == kkt_residuals(qp, y[:, None], lam, [z])
        for name, args in (
            ("y", (y[:-1], lam, z)),
            ("lam", (y, lam[:-1], z)),
            ("lam", (y, np.zeros(qp.n + 1), z)),
            ("z", (y, lam, z[:1])),
        ):
            size = qp.n if name == "lam" else qp.y_m
            got = args[("y", "lam", "z").index(name)].size
            with pytest.raises(LengthMismatch, match=f"expected {name} of length {size}, got {got}"):
                kkt_residuals(qp, *args)

    def test_reaches_machine_precision(self):
        P, pi, pattern = random_instance(8, 91)
        qp = build_reduced_qp(P, pi, pattern)
        result = solve_qp(qp)
        assert result.kkt_residuals.primal_eq <= 1e-13
        assert result.kkt_residuals.stationarity <= 1e-12


def mh_point(qp, pattern, pi):
    """The Metropolis-Hastings adjustment of the uniform proposal on the
    pattern, mapped into the symmetric variables of ``qp``."""
    T = reversibilize(row_normalize(pattern.csr), pi)
    i, j = qp.maps.upper_rows, qp.maps.upper_cols
    return np.asarray(T.csr[i, j]).ravel() * qp.pi_hat[i] / qp.pi_hat[j]


class TestFeasibleStart:
    @pytest.mark.parametrize("seed", range(4))
    def test_strictly_positive_and_feasible(self, seed):
        # the program always has a strictly positive feasible point: the
        # Metropolis-Hastings chain
        P, pi, pattern = random_instance(5 + seed % 2, 300 + seed)
        qp = build_reduced_qp(P, pi, pattern)
        y0 = mh_point(qp, pattern, pi)
        assert y0.min() > 0.0
        assert np.abs(qp.a_eq @ y0 - qp.b_eq).max() <= 1e-13


def _solve_with_peak(qp):
    """``solve_qp(qp)`` and the peak of its traced allocations in bytes."""
    tracemalloc.start()
    try:
        result = solve_qp(qp)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ring_above_dense_limit():
    # a banded ring of n = 3000; the allocation bound is an eighth of one
    # dense n-by-n float64 array
    n = 3000
    P = ring_chain(1.0 + 0.1 * np.random.default_rng(0).random(3 * n))
    qp = build_reduced_qp(P, stationary_mixture(P), symmetrized_pattern(P))
    newton, peak = _solve_with_peak(qp)
    multipliers = least_squares_multipliers(qp, newton.y)
    assert max(newton.kkt_residuals.worst, kkt_residuals(qp, newton.y, *multipliers).worst) <= 1e-13
    assert peak < n * n


@pytest.mark.parametrize("size", [800, 2500])
def test_expander_above_dense_limit(size, caplog):
    # heavy-fill expanders (n 792 and 2,454) whose optima have active bounds,
    # so the Newton free set changes from step to step; conjugate gradients
    # solve every Newton system without handing one to the sparse factor
    P = gen_random_chain(BenchmarkConfig(n_min=size, n_max=size, seed=1), 0)
    qp = build_reduced_qp(P, stationary_mixture(P), symmetrized_pattern(P))
    with caplog.at_level(logging.DEBUG, logger="revmarkov.qp_solve"):
        result, peak = _solve_with_peak(qp)
    assert not caplog.records
    multipliers = least_squares_multipliers(qp, result.y)
    assert max(result.kkt_residuals.worst, kkt_residuals(qp, result.y, *multipliers).worst) <= 1e-13
    assert result.y.min() >= 0.0
    assert (result.y == 0.0).any()
    assert peak < P.n * P.n


def test_singular_newton_system_falls_back_to_factor(caplog):
    # on a bipartite chain the free-set normal matrix is singular, conjugate
    # gradients stall on a system they must solve tight, and the sparse
    # factor takes the step
    P = wide_span_chain(443)
    qp = build_reduced_qp(P, stationary_mixture(P), symmetrized_pattern(P))
    with caplog.at_level(logging.DEBUG, logger="revmarkov.qp_solve"):
        result = solve_qp(qp)
    assert caplog.records
    for record in caplog.records:
        assert record.levelno == logging.DEBUG
        match = re.fullmatch(
            rf"Newton system of order {qp.n} \(free set \d+\) handed to the sparse "
            r"factor after (\d+) CG iterations at residual \S+",
            record.getMessage(),
        )
        assert match
        # a singular system is not left to run to the fixed iteration cap
        assert int(match.group(1)) <= 4 * qp.n
    assert np.abs(result.y - oracle_solve(qp)).max() <= 1e-9


@pytest.mark.parametrize("position", range(4))
def test_worst_residual_is_nan_when_any_residual_is(position):
    # max() keeps a NaN only in first place, and NaN > tolerance is False
    values = [0.0, 1e-12, 0.0, 1e-13]
    values[position] = float("nan")
    assert np.isnan(KKTResiduals(*values).worst)


def test_spent_regularization_ladder_returns_best_iterate(monkeypatch):
    # conjugate gradients that break down hand the first system to a factor
    # that fails at every shift from 0 through 1e-14 ... 1e-6; that ends the
    # Newton loop on its best iterate, which the tolerance then rejects
    shifts = []

    def singular_factor(matrix):
        shifts.append(matrix)
        raise RuntimeError("Factor is exactly singular")

    systems = []

    def broken_pcg(normal, diag, rhs, stop_loose):
        systems.append(rhs)
        return None, 0, float(np.abs(rhs).max()), False

    monkeypatch.setattr("revmarkov.qp_solve._symmetric_lu", singular_factor)
    monkeypatch.setattr("revmarkov.qp_solve._newton_pcg", broken_pcg)
    P = wide_span_chain(111)
    qp = build_reduced_qp(P, stationary_mixture(P), symmetrized_pattern(P))
    with pytest.raises(MaxIterations) as info:
        solve_qp(qp)
    assert len(shifts) == 6
    assert info.value.result.factor_steps == 1
    assert info.value.result.y.shape == (qp.y_m,)
    # the loop broke on the first system, whose step was never applied
    assert len(systems) == 1
    assert str(info.value).endswith("after 0 of at most 200 Newton steps")


def own_program(P, pattern=None):
    return build_reduced_qp(P, stationary_mixture(P), pattern or symmetrized_pattern(P))


def identity_program(P):
    # a diagonal-only pattern leaves a diagonal normal matrix
    return own_program(P, SparsityPattern(np.eye(P.n)))


def pattern_override_programs(monkeypatch):
    # the programs the pipeline solves for the symmetrized support of a ring
    # widened by random positions
    P = ring_chain(1.0 + 0.1 * np.random.default_rng(4).random(36))
    rng = np.random.default_rng(3)
    extra = np.triu(rng.random((P.n, P.n)) < 0.3, k=1)
    extra = sp.csr_matrix((extra | extra.T).astype(float))
    pattern = SparsityPattern(symmetrized_pattern(P).csr + extra)
    programs = []

    def spy(qp, opts=None):
        programs.append(qp)
        return solve_qp(qp, opts)

    monkeypatch.setattr("revmarkov.pipeline.solve_qp", spy)
    nearest_sparse_reversible(P, PipelineOptions(pattern=pattern))
    assert [qp.y_m for qp in programs] == [(pattern.csr.nnz + P.n) // 2]
    return programs


NORMAL_MATRIX_CASES = {
    "ensemble": lambda _: [own_program(gen_random_chain(BenchmarkConfig(), 0))],
    "ring": lambda _: [own_program(ring_chain(1.0 + 0.1 * np.random.default_rng(2).random(120)))],
    "bipartite": lambda _: [own_program(wide_span_chain(111))],
    "identity": lambda _: [identity_program(wide_span_chain(5))],
    "pattern override": pattern_override_programs,
}


@pytest.mark.parametrize("case", NORMAL_MATRIX_CASES)
def test_formed_normal_matrix_is_the_dense_product(case, monkeypatch):
    # S = A diag(w_F) A^T is written onto A's own CSR structure; it must be
    # the dense product for any free set, the empty and the full one included
    rng = np.random.default_rng(0)
    programs = NORMAL_MATRIX_CASES[case](monkeypatch)
    assert programs
    for qp in programs:
        # the stored A^T, on which the solver's transposed products run
        expected = qp.a_eq.T.tocsr()
        assert qp.a_eq_t.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(qp.a_eq_t, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        a = qp.a_eq.toarray()
        form = _normal_matrix(qp)
        for density in (0.0, 0.3, 0.7, 1.0):
            w_f = np.where(rng.random(qp.y_m) < density, 1.0 / qp.hessian_diag, 0.0)
            normal, diag = form(w_f)
            assert np.array_equal(normal.indptr, qp.a_eq.indptr)
            dense = a @ np.diag(w_f) @ a.T
            formed = _scipy(normal)
            np.testing.assert_allclose(formed.toarray(), dense, rtol=1e-14, atol=0.0)
            np.testing.assert_array_equal(diag, formed.diagonal())


@pytest.mark.parametrize("seed", range(5))
def test_factor_solves_a_singular_bipartite_system(seed):
    # a reversible walk on a bipartite graph is its own nearest reversible
    # chain, with every diagonal variable at zero; on that free set the
    # normal matrix is singular (A_F^T annihilates s with alternating
    # signs), and one factor solve of the consistent Newton system still
    # gives the oracle's minimizer, whether or not its regularization steps in
    rng = np.random.default_rng(seed)
    side = np.arange(4) % 2
    weights = np.where(side[:, None] != side[None, :], rng.random((4, 4)), 0.0)
    qp = own_program(row_normalize(weights + weights.T))
    w_f = np.where(qp.maps.diagonal_mask, 0.0, 1.0 / qp.hessian_diag)
    normal, _ = _normal_matrix(qp)(w_f)
    assert np.linalg.matrix_rank(_scipy(normal).toarray()) == qp.n - 1
    lam = _normal_solve(normal, qp.b_eq + qp.a_eq @ (w_f * qp.linear))
    y = w_f * (qp.a_eq.T @ lam - qp.linear)
    assert np.abs(y - oracle_solve(qp)).max() <= 1e-12


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kkt_tolerance": 0.0}, "kkt_tolerance must be positive"),
        ({"max_iterations": 0}, "max_iterations must be at least 1"),
    ],
)
def test_solver_options_guards(fields, message):
    with pytest.raises(ValueError, match=message):
        SolverOptions(**fields)


def _never_loose(x):
    raise AssertionError("no iterate should meet only the loose tolerance")


def test_conjugate_gradients_report_breakdown():
    rhs = np.array([1.0, -1.0])
    # a direction of zero curvature: p = rhs is in the null space
    singular = sp.csr_matrix(np.ones((2, 2)))
    assert _newton_pcg(singular, singular.diagonal(), rhs, _never_loose) == (None, 1, 1.0, False)
    # a zero diagonal entry leaves no Jacobi preconditioner
    unreachable = sp.csr_matrix(np.diag([1.0, 0.0]))
    assert _newton_pcg(unreachable, unreachable.diagonal(), rhs, _never_loose) == (
        None,
        0,
        1.0,
        False,
    )
    regular = sp.csr_matrix(np.diag([2.0, 4.0]))
    x, iterations, residual, tight = _newton_pcg(regular, regular.diagonal(), rhs, _never_loose)
    assert (x.tolist(), iterations, residual, tight) == ([0.5, -0.25], 1, 0.0, True)
    # the first r^T D^-1 r underflows to zero
    assert _newton_pcg(regular, regular.diagonal(), 1e-170 * rhs, _never_loose) == (
        None,
        0,
        1e-170,
        False,
    )


def _wide_diagonal_system(scale=1.0):
    """``S = D^1/2 M D^1/2`` of order 60 with ``M`` diagonally dominant and
    ``D`` from 1e-8 to 1, times ``scale``, and a right-hand side."""
    rng = np.random.default_rng(5)
    m = sp.random(60, 60, density=0.1, random_state=rng)
    m = m + m.T
    m = m + sp.diags(np.asarray(abs(m).sum(axis=1)).ravel() + 1.0)
    root = sp.diags(np.sqrt(np.logspace(-8, 0, 60)))
    return (scale * (root @ m @ root)).tocsr(), rng.normal(size=60)


CG_SYSTEMS = {
    # the three systems of test_conjugate_gradients_report_breakdown
    "zero curvature": lambda: (sp.csr_matrix(np.ones((2, 2))), np.array([1.0, -1.0])),
    "zero diagonal": lambda: (sp.csr_matrix(np.diag([1.0, 0.0])), np.array([1.0, -1.0])),
    "regular": lambda: (sp.csr_matrix(np.diag([2.0, 4.0])), np.array([1.0, -1.0])),
    # sum(1/d) is dominated by the smallest d, so the bound r^T D^-1 r admits
    # five iterations before the exact test stops
    "diagonal from 1e-8 to 1": _wide_diagonal_system,
    # target^2 underflows while r^T D^-1 r does not
    "diagonal near 1e-100, right-hand side near 1e-150": lambda: (
        _wide_diagonal_system(1e-100)[0],
        _wide_diagonal_system()[1] * 1e-150,
    ),
    # r^T D^-1 r underflows to zero: a breakdown, not a division by zero
    "right-hand side near 1e-158.5": lambda: (
        _wide_diagonal_system()[0],
        _wide_diagonal_system()[1] * 10**-158.5,
    ),
    # the same before the first iteration
    "right-hand side near 1e-170": lambda: (
        _wide_diagonal_system()[0],
        _wide_diagonal_system()[1] * 1e-170,
    ),
}


@pytest.mark.parametrize("case", CG_SYSTEMS)
def test_conjugate_gradients_match_the_reference_loop(case):
    # both loops hand the same iterate to stop_loose, and return it when
    # told to stop there or go on to the same tight result
    normal, rhs = CG_SYSTEMS[case]()
    diag = normal.diagonal()
    for stop in (False, True):
        seen = {"loop": [], "reference": []}

        def stop_loose(name):
            def record(x):
                seen[name].append(x.tobytes())
                return stop

            return record

        expected = reference_newton_pcg(normal, diag, rhs, stop_loose("reference"))
        assert same_result(_newton_pcg(normal, diag, rhs, stop_loose("loop")), expected)
        assert seen["loop"] == seen["reference"]
        assert len(seen["loop"]) <= 1
        if case == "diagonal from 1e-8 to 1":  # passes the loose tolerance
            assert seen["loop"]


def test_dual_gain_matches_nested_where():
    # the per-case products of the line search's gain, as one nested
    # ``np.where`` over full-length arrays; same arithmetic, so equal bits
    rng = np.random.default_rng(0)
    v, u, w = rng.normal(size=(3, 1000))
    v[rng.random(1000) < 0.2] = 0.0
    w = np.abs(w)
    for t in (1.0, 0.5, 2.0**-20):
        v_t = v + t * u
        r = np.where(
            v > 0.0,
            np.where(v_t > 0.0, (t * u) ** 2, -v * (v + 2.0 * t * u)),
            np.maximum(v_t, 0.0) ** 2,
        )
        assert _dual_gain(v, u, w, 0.3, t) == t * 0.3 - 0.5 * float(r @ w)


def _recording_pcg(monkeypatch):
    """Replace ``_newton_pcg`` by a spy; returns the list it appends, per
    Newton system, whether ``stop_loose`` was asked, what the system's step
    was (``"tight"``, ``"loose"`` or ``"factor"``) and the bytes of the
    conjugate-gradient step."""
    systems = []

    def spy(normal, diag, rhs, stop_loose):
        asked = []

        def watched(x):
            asked.append(stop_loose(x))
            return asked[-1]

        x, iterations, residual, tight = _newton_pcg(normal, diag, rhs, watched)
        kind = "factor" if x is None else "tight" if tight else "loose"
        systems.append((bool(asked), kind, None if x is None else x.tobytes()))
        return x, iterations, residual, tight

    monkeypatch.setattr("revmarkov.qp_solve._newton_pcg", spy)
    return systems


def test_accepted_solutions_end_on_a_tight_step(monkeypatch):
    # a step solved only to the loose tolerance changes the free set, so the
    # Newton step that reached an accepted solution was solved tight, by
    # conjugate gradients or by the factor
    systems = _recording_pcg(monkeypatch)
    chains = [wide_span_chain(seed) for seed in range(200)]
    chains += [gen_random_chain(BenchmarkConfig(seed=1), case) for case in range(5)]
    kinds = Counter()
    for P in chains:
        systems.clear()
        result = solve_qp(own_program(P))
        kinds.update(kind for _, kind, _ in systems)
        if result.iterations:
            assert systems[result.iterations - 1][1] != "loose"
    assert kinds["loose"] > 0 and kinds["tight"] > 0


def test_continued_conjugate_gradients_keep_their_bits(monkeypatch):
    # the one Newton step of a ring program keeps its free set, so the
    # iterate at the loose tolerance is not taken and conjugate gradients go
    # on to the bits they give without the loose test
    systems = _recording_pcg(monkeypatch)
    qp = own_program(ring_chain(1.0 + 0.1 * np.random.default_rng(0).random(600)))
    result = solve_qp(qp)
    ((asked, kind, step),) = systems
    assert asked and kind == "tight" and result.iterations == 1
    monkeypatch.setattr("revmarkov.qp_solve._CG_FORCING", 0.0)
    systems.clear()
    plain = solve_qp(qp)
    assert systems == [(False, "tight", step)]
    assert result.y.tobytes() == plain.y.tobytes()
    assert result.cg_iterations == plain.cg_iterations


def test_counts_match_the_factor_records(caplog):
    # factor_steps counts the Newton systems whose hand-over is logged, and
    # cg_iterations at least the iterations those records name
    for seed in range(100):
        P = wide_span_chain(seed)
        qp = own_program(P)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="revmarkov.qp_solve"):
            result = solve_qp(qp)
        logged = [
            int(re.search(r"after (\d+) CG iterations", record.getMessage()).group(1))
            for record in caplog.records
        ]
        assert result.factor_steps == len(logged)
        assert result.cg_iterations >= sum(logged)
        assert result.factor_steps <= result.iterations


class TestOracleSolve:
    def test_diagonal_pattern_forces_identity(self):
        # within a diagonal-only pattern the eigenvector equation pins every
        # variable: the expanded matrix is the identity
        P = row_normalize(np.eye(4))
        raw = np.array([0.4, 0.3, 0.2, 0.1])
        pi = ProbabilityVector(raw)
        pattern = SparsityPattern(np.eye(4))
        qp = build_reduced_qp(P, pi, pattern)
        y = oracle_solve(qp)
        R = unscale_solution(y, qp.maps, qp.pi_hat)
        assert np.abs(R.toarray() - np.eye(4)).max() <= 1e-12

    def test_ring_pattern_kkt_recheck(self):
        ring = np.eye(3)
        for i in range(3):
            ring[i, (i + 1) % 3] = ring[(i + 1) % 3, i] = 1.0
        rng = np.random.default_rng(8)
        P = row_normalize(np.where(ring > 0, rng.random((3, 3)), 0.0))
        pi = stationary_mixture(P)
        qp = build_reduced_qp(P, pi, SparsityPattern(ring))
        y = oracle_solve(qp)
        residuals = kkt_residuals(qp, y, *least_squares_multipliers(qp, y))
        assert residuals.primal_eq <= 1e-9
        assert residuals.primal_ineq <= 1e-9
        assert residuals.complementarity <= 1e-7

    def test_symmetric_swap_chain_is_fixed_point(self):
        P = SparseStochasticMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        pi = ProbabilityVector(np.full(2, 0.5))
        qp = build_reduced_qp(P, pi, SparsityPattern(np.ones((2, 2))))
        y = oracle_solve(qp)
        R = unscale_solution(y, qp.maps, qp.pi_hat)
        assert np.abs(R.toarray() - P.toarray()).max() <= 1e-12

    def test_too_large(self):
        P, pi, pattern = random_instance(6, 5)
        qp = build_reduced_qp(P, pi, pattern)
        if qp.y_m <= 16:
            pytest.skip("instance unexpectedly small")
        with pytest.raises(ValueError):
            oracle_solve(qp)


def test_against_independent_qp_engine():
    # mid-size instances are beyond the enumeration oracle; cross-check the
    # dual Newton solver against a third-party conic solver when one is around
    cvxopt = pytest.importorskip("cvxopt")
    cvxopt.solvers.options["show_progress"] = False
    cvxopt.solvers.options["abstol"] = 1e-12
    cvxopt.solvers.options["reltol"] = 1e-12

    for seed in (1, 2, 3):
        P, pi, pattern = random_instance(30, 600 + seed)
        qp = build_reduced_qp(P, pi, pattern)
        result = solve_qp(qp)

        m = qp.y_m
        sol = cvxopt.solvers.qp(
            cvxopt.matrix(np.diag(qp.hessian_diag)),
            cvxopt.matrix(qp.linear),
            cvxopt.matrix(-np.eye(m)),
            cvxopt.matrix(np.zeros(m)),
            cvxopt.matrix(qp.a_eq.toarray()),
            cvxopt.matrix(qp.b_eq),
        )
        assert sol["status"] == "optimal"
        reference = np.array(sol["x"]).ravel()
        # never worse than the independent engine, and same minimizer
        assert objective(qp, result.y, P) <= objective(qp, reference, P) + 1e-12
        assert np.abs(result.y - reference).max() <= 1e-5
