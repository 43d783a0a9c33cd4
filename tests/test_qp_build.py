import logging

import numpy as np
import pytest

import dense_oracle
from revmarkov import (
    DimensionMismatch,
    LengthMismatch,
    MissingDiagonal,
    NegativeEntry,
    NonPositivePi,
    PatternNotSymmetric,
    ProbabilityVector,
    SparsityPattern,
    build_reduced_qp,
    reversibilize,
    row_normalize,
    solve_qp,
    stationary_mixture,
    symmetrized_pattern,
    unscale_solution,
)


def random_instance(n, seed, extra_edges=None):
    """Chain, stationary vector, and symmetric pattern covering its support."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.4
    mask[np.arange(n), (np.arange(n) + 1) % n] = True
    np.fill_diagonal(mask, True)
    P = row_normalize(np.where(mask, rng.random((n, n)), 0.0))
    pi = stationary_mixture(P)
    pattern = symmetrized_pattern(P)
    return P, pi, pattern


class TestBuildIndexMaps:
    def test_full_two_by_two(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        assert maps.y_m == 3
        assert maps.upper_rows.tolist() == [0, 0, 1]
        assert maps.upper_cols.tolist() == [0, 1, 1]

    def test_triu_order_is_column_major(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((3, 3))))
        assert list(zip(maps.upper_rows.tolist(), maps.upper_cols.tolist())) == [
            (0, 0),
            (0, 1),
            (1, 1),
            (0, 2),
            (1, 2),
            (2, 2),
        ]

    def test_identity_pattern(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.eye(5)))
        assert maps.y_m == 5

    def test_ring_pattern_count(self, butane_pattern_dense):
        # 90 admissible positions on 30 states: (90 - 30) / 2 + 30 = 60
        maps = dense_oracle.index_maps(SparsityPattern(butane_pattern_dense))
        assert maps.y_m == 60

    def test_variable_count_formula(self, pattern_factory):
        for seed in range(5):
            pattern = pattern_factory(6, seed, extra_edges=7)
            maps = dense_oracle.index_maps(pattern)
            assert maps.y_m == (pattern.size - pattern.n) // 2 + pattern.n

    def test_asymmetric_rejected(self):
        with pytest.raises(PatternNotSymmetric):
            dense_oracle.index_maps(SparsityPattern(np.array([[1.0, 1.0], [0.0, 1.0]])))

    def test_missing_diagonal_rejected(self):
        with pytest.raises(MissingDiagonal):
            dense_oracle.index_maps(SparsityPattern(np.array([[1.0, 1.0], [1.0, 0.0]])))


class TestApplyReducedOperator:
    """The scaled symmetric expansion ``D_s^{-1} Y D_s`` as applied by
    :func:`unscale_solution`, on feasible ``y``: rows sum to 1, so no
    renormalization runs."""

    def test_uniform_target_is_plain_vec(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((3, 3))))
        Y = np.array([[0.5, 0.2, 0.3], [0.2, 0.6, 0.2], [0.3, 0.2, 0.5]])
        y = Y[maps.upper_rows, maps.upper_cols]
        R = unscale_solution(y, maps, np.full(3, np.sqrt(1.0 / 3.0)))
        assert np.abs(dense_oracle.vec(R.toarray()) - dense_oracle.vec(Y)).max() <= 1e-15

    def test_diagonal_invariant_under_scaling(self):
        # Y s = s with s = (1/2, sqrt(3)/2) and off-diagonal entry 0.1
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        pi_hat = np.sqrt(np.array([0.25, 0.75]))
        diagonal = 1.0 - 0.1 * pi_hat[::-1] / pi_hat
        R = unscale_solution([diagonal[0], 0.1, diagonal[1]], maps, pi_hat)
        assert np.array_equal(R.toarray().diagonal(), diagonal)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_kronecker(self, n):
        rng = np.random.default_rng(n)
        dense = np.eye(n)
        extra = rng.random((n, n)) < 0.5
        pattern = SparsityPattern(np.maximum(dense, extra | extra.T))
        raw = rng.random(n) + 0.1
        pi = ProbabilityVector(raw / raw.sum())
        P = row_normalize(pattern.csr.multiply(rng.random((n, n))))
        qp = build_reduced_qp(P, pi, pattern)
        y = solve_qp(qp).y
        expected = dense_oracle.full_operator(qp.maps, qp.pi_hat) @ y
        assert np.abs(dense_oracle.unvec(expected, n).sum(axis=1) - 1.0).max() <= 1e-12
        R = unscale_solution(y, qp.maps, qp.pi_hat)
        assert np.abs(dense_oracle.vec(R.toarray()) - expected).max() <= 1e-14


class TestBuildReducedQP:
    def test_small_instance_closed_form(self):
        # uniform target, full 2x2 pattern: the quadratic diagonal is
        # (1, pi_i/pi_j + pi_j/pi_i, 1) = (1, 2, 1)
        from revmarkov import SparseStochasticMatrix

        P = SparseStochasticMatrix.from_dense([[0.3, 0.7], [0.5, 0.5]])
        pi = ProbabilityVector(np.full(2, 0.5))
        qp = build_reduced_qp(P, pi, SparsityPattern(np.ones((2, 2))))
        assert np.allclose(qp.hessian_diag, [1.0, 2.0, 1.0])
        assert np.allclose(qp.linear, [-0.3, -1.2, -0.5])
        maps, Q, c, A_eq, pi_hat = dense_oracle.dense_qp(
            P.toarray(), pi.values, SparsityPattern(np.ones((2, 2)))
        )
        assert np.abs(np.diag(Q) - qp.hessian_diag).max() <= 1e-15
        assert np.abs(c - qp.linear).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_oracle(self, n, seed):
        P, pi, pattern = random_instance(n, seed)
        qp = build_reduced_qp(P, pi, pattern)
        maps, Q, c, A_eq, pi_hat = dense_oracle.dense_qp(
            P.toarray(), pi.values, pattern
        )
        off_diagonal = Q - np.diag(np.diag(Q))
        assert np.abs(off_diagonal).max() <= 1e-13  # no coupling between slots
        assert np.abs(np.diag(Q) - qp.hessian_diag).max() <= 1e-13
        assert np.abs(c - qp.linear).max() <= 1e-13
        assert np.abs(qp.a_eq.toarray() - A_eq).max() <= 1e-13
        assert np.abs(qp.b_eq - pi_hat).max() <= 1e-15

    def test_constraint_equivalence(self):
        # A_eq y = b exactly when the expanded matrix fixes the scaled target
        P, pi, pattern = random_instance(5, 7)
        qp = build_reduced_qp(P, pi, pattern)
        rng = np.random.default_rng(1)
        pi_hat = np.sqrt(pi.values)
        for _ in range(10):
            y = rng.random(qp.y_m)
            lhs = qp.a_eq @ y - qp.b_eq
            Y = dense_oracle.symmetric_from_upper(y, qp.maps)
            rhs = Y @ pi_hat - pi_hat
            assert np.abs(lhs - rhs).max() <= 1e-13

    def test_objective_equivalence(self):
        P, pi, pattern = random_instance(4, 3)
        qp = build_reduced_qp(P, pi, pattern)
        rng = np.random.default_rng(2)
        pi_hat = np.sqrt(pi.values)
        dense_p = P.toarray()
        for _ in range(10):
            y = rng.random(qp.y_m)
            X = dense_oracle.symmetric_from_upper(y, qp.maps) * (
                pi_hat[None, :] / pi_hat[:, None]
            )
            direct = 0.5 * np.sum((X - dense_p) ** 2)
            assert dense_oracle.objective(qp, y, P) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_positive_definite_on_random_instances(self):
        for seed in range(10):
            n = 2 + seed % 5
            P, pi, pattern = random_instance(n, seed)
            _, Q, *_ = dense_oracle.dense_qp(P.toarray(), pi.values, pattern)
            assert np.linalg.eigvalsh(Q).min() > 1e-12

    def test_rank_of_scaled_operator(self):
        P, pi, pattern = random_instance(5, 13)
        maps = dense_oracle.index_maps(pattern)
        operator = dense_oracle.full_operator(maps, np.sqrt(pi.values))
        assert np.linalg.matrix_rank(operator, tol=1e-12) == maps.y_m

    def test_weighting_vector_identity(self):
        # the normal product of the symmetrization against the projector is
        # diagonal: 1 for off-diagonal slots, 1/2 for diagonal ones
        P, pi, pattern = random_instance(4, 17)
        maps = dense_oracle.index_maps(pattern)
        n = maps.n
        K = dense_oracle.commutation_matrix(n)
        Pi = dense_oracle.projector(maps)
        product = Pi.T @ (np.eye(n * n) + K) @ Pi
        weights = np.where(maps.diagonal_mask, 0.5, 1.0)
        assert np.abs(product - np.diag(weights)).max() <= 1e-15

    def test_rejects_zero_mass(self):
        P, _, pattern = random_instance(3, 1)
        with pytest.raises(NonPositivePi):
            build_reduced_qp(P, ProbabilityVector([0.5, 0.5, 0.0]), pattern)

    @pytest.mark.parametrize(
        "pi_size, pattern_size, message",
        [(2, 3, "pi and pattern"), (3, 2, "P and pattern")],
    )
    def test_rejects_wrong_sizes(self, pi_size, pattern_size, message):
        P = row_normalize(np.ones((3, 3)))
        pi = ProbabilityVector(np.ones(pi_size) / pi_size)
        with pytest.raises(DimensionMismatch, match=f"dimensions of {message} disagree"):
            build_reduced_qp(P, pi, SparsityPattern(np.ones((pattern_size, pattern_size))))

    def test_unreduced_formulation_consistency(self):
        # expanded candidates satisfy the n^2-variable constraints: symmetry,
        # pattern mask, eigenvector equation
        P, pi, pattern = random_instance(4, 23)
        qp = build_reduced_qp(P, pi, pattern)
        eig_map, asymmetry, mask = dense_oracle.unreduced_constraints(pattern)
        pi_hat = np.sqrt(pi.values)
        rng = np.random.default_rng(0)
        y = rng.random(qp.y_m)
        v = dense_oracle.vec(dense_oracle.symmetric_from_upper(y, qp.maps))
        assert np.abs(asymmetry @ v).max() <= 1e-15
        assert np.abs(mask @ v).max() == 0.0
        residual = eig_map(pi_hat) @ v - pi_hat
        assert np.abs(residual - (qp.a_eq @ y - qp.b_eq)).max() <= 1e-13


class TestFeasibleSetGeometry:
    def test_convex_combinations_stay_feasible(self, pattern_factory):
        # two distinct balanced chains on the pattern, combined with a sweep
        # of weights: every combination must stay feasible
        rng = np.random.default_rng(3)
        pattern = pattern_factory(5, 4, extra_edges=6)
        raw = rng.random(5) + 0.2
        pi = ProbabilityVector(raw / raw.sum())
        pi_hat = np.sqrt(pi.values)
        Q = row_normalize(pattern.csr)  # the uniform random-walk proposal
        qp = build_reduced_qp(Q, pi, pattern)
        maps = qp.maps

        def scaled_upper(T):
            Y = T * (pi_hat[:, None] / pi_hat[None, :])
            return Y[maps.upper_rows, maps.upper_cols]

        # the MH chain and its lazy version, both balanced on the pattern
        T = reversibilize(Q, pi).toarray()
        y1 = scaled_upper(T)
        y2 = scaled_upper(0.5 * (np.eye(5) + T))
        assert np.abs(y1 - y2).max() > 1e-3
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            y = lam * y1 + (1.0 - lam) * y2
            assert y.min() >= -1e-15
            assert np.abs(qp.a_eq @ y - qp.b_eq).max() <= 1e-14


class TestUnscaleSolution:
    def test_roundtrip_reversible_chain(self, reversible_factory):
        P, pi = reversible_factory(6, 2)
        pattern = symmetrized_pattern(P)
        maps = dense_oracle.index_maps(pattern)
        pi_hat = np.sqrt(pi.values)
        Y = P.toarray() * (pi_hat[:, None] / pi_hat[None, :])
        y = Y[maps.upper_rows, maps.upper_cols]
        R = unscale_solution(y, maps, pi_hat)
        assert np.abs(R.toarray() - P.toarray()).max() <= 1e-12

    def test_uniform_target_is_identity_scaling(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        pi_hat = np.full(2, np.sqrt(0.5))
        R = unscale_solution([0.5, 0.5, 0.5], maps, pi_hat)
        assert np.allclose(R.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_length_mismatch(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        pi_hat = np.full(2, np.sqrt(0.5))
        with pytest.raises(LengthMismatch, match="expected length 3, got 4"):
            unscale_solution(np.ones(4), maps, pi_hat)
        for size in (1, 3):
            with pytest.raises(LengthMismatch, match=f"pi_hat of length 2, got {size}"):
                unscale_solution(np.full(3, 0.5), maps, np.full(size, np.sqrt(0.5)))

    def test_negative_entry_raises(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        with pytest.raises(NegativeEntry):
            unscale_solution([0.5, -1e-6, 0.5], maps, np.full(2, np.sqrt(0.5)))

    def test_small_negative_clamped(self):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        R = unscale_solution([1.0, -1e-13, 1.0], maps, np.full(2, np.sqrt(0.5)))
        assert R.toarray()[0, 1] == 0.0

    def test_renormalization_logged(self, caplog):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        with caplog.at_level(logging.WARNING, logger="revmarkov.qp_build"):
            R = unscale_solution([1.001, 0.0, 0.999], maps, np.full(2, np.sqrt(0.5)))
        assert [r.name for r in caplog.records] == ["revmarkov.qp_build"]
        assert "renormalizing" in caplog.records[0].getMessage()
        assert np.allclose(R.toarray(), np.eye(2))

    def test_renormalization_divides_each_row_by_its_sum(self, caplog):
        maps = dense_oracle.index_maps(SparsityPattern(np.ones((2, 2))))
        with caplog.at_level(logging.WARNING, logger="revmarkov.qp_build"):
            R = unscale_solution([0.5, 0.2, 0.4], maps, np.full(2, np.sqrt(0.5)))
        assert np.abs(R.toarray() - [[5 / 7, 2 / 7], [1 / 3, 2 / 3]]).max() <= 1e-15
