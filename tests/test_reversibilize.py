import numpy as np
import pytest

from dense_oracle import pattern_positions
from revmarkov import (
    DimensionMismatch,
    NonPositivePi,
    ProbabilityVector,
    SparseStochasticMatrix,
    detailed_balance_residual,
    frobenius_distance,
    mh_baseline_distance,
    nearest_sparse_reversible,
    reversibilize,
    row_normalize,
    stationarity_residual,
    stationary_mixture,
    stochasticity_residual,
    symmetrized_pattern,
)


class TestReversibilize:
    def test_ring4_metropolis_is_exact(self, ring4):
        T = reversibilize(ring4.T, ring4.pi)
        assert np.abs(T.toarray() - ring4.adjusted).max() <= 1e-15

    def test_balanced_proposal_unchanged(self):
        Q = SparseStochasticMatrix.from_dense(np.full((4, 4), 0.25))
        pi = ProbabilityVector(np.full(4, 0.25))
        T = reversibilize(Q, pi)
        assert np.abs(T.toarray() - Q.toarray()).max() <= 1e-16

    @pytest.mark.parametrize("seed", range(5))
    def test_output_contracts(self, chain_factory, seed):
        Q = chain_factory(8, seed, density=0.35)
        pi = stationary_mixture(Q)
        T = reversibilize(Q, pi)
        assert detailed_balance_residual(T, pi) <= 1e-14
        assert stochasticity_residual(T) <= 1e-14
        assert stationarity_residual(T, pi) <= 1e-13
        # support containment and the non-reciprocated-edge elimination
        q = Q.toarray()
        t = T.toarray()
        off = ~np.eye(8, dtype=bool)
        assert not np.any((t > 0) & ~((q > 0) | np.eye(8, dtype=bool)))
        assert not np.any((t > 0) & off & (q.T == 0))
        # the diagonal only ever grows
        assert np.all(np.diag(t) >= np.diag(q) - 1e-15)

    def test_matches_dense_formula(self, chain_factory):
        for seed in range(5):
            Q = chain_factory(12, seed, density=0.3)
            pi = stationary_mixture(Q).values
            flux = pi[:, None] * Q.toarray()
            np.fill_diagonal(flux, 0.0)
            expected = np.minimum(flux, flux.T) / pi[:, None]
            expected[np.diag_indices(12)] = 1.0 - expected.sum(axis=1)
            T = reversibilize(Q, ProbabilityVector(pi))
            assert np.abs(T.toarray() - expected).max() <= 1e-15
            # one-way edges and empty diagonals leave no stored zeros
            assert T.nnz == np.count_nonzero(expected)

    def test_rejects_zero_mass_with_outgoing(self):
        Q = SparseStochasticMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
        pi = ProbabilityVector([1.0, 0.0])
        with pytest.raises(NonPositivePi) as err:
            reversibilize(Q, pi)
        assert err.value.state == 1

    def test_zero_mass_isolated_state_allowed(self):
        Q = SparseStochasticMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
        pi = ProbabilityVector([1.0, 0.0])
        T = reversibilize(Q, pi)
        assert np.array_equal(T.toarray(), np.eye(2))

    @pytest.mark.parametrize("overshoot", [5e-13, 9e-13])
    def test_row_sum_within_the_stochastic_tolerance(self, overshoot):
        # the constructor accepts a row sum 1 + 9e-13, so the adjustment and
        # the pipeline's baseline must too
        P = SparseStochasticMatrix.from_dense([[0, 1 + overshoot, 0], [0.5, 0, 0.5], [0, 1, 0]])
        pi = stationary_mixture(P)
        assert detailed_balance_residual(reversibilize(P, pi), pi) <= 1e-15
        R, diag = nearest_sparse_reversible(P)
        assert max(diag.residuals) <= 1e-10
        # the baseline keeps the overshoot and R does not, hence the slack
        assert diag.distance <= diag.mh_distance + 1e-10


class TestMHBaselineDistance:
    def test_reversible_input_is_zero(self, reversible_factory):
        P, pi = reversible_factory(7, 3)
        assert mh_baseline_distance(P, pi) <= 1e-13

    def test_matches_direct_computation(self, chain_factory):
        P = chain_factory(9, 21)
        pi = stationary_mixture(P)
        expected = frobenius_distance(reversibilize(P, pi), P)
        assert mh_baseline_distance(P, pi) == pytest.approx(expected, rel=1e-12)

    def test_desk_scale_butane(self, butane):
        # the adjustment must move the chain, but only modestly: asymmetry of
        # lag-1 counts from one wrapped 1d trajectory is winding-dominated
        distance = mh_baseline_distance(butane.P, stationary_mixture(butane.P))
        assert 0.0 < distance < 0.2


@pytest.mark.parametrize("adjust, chain", [(reversibilize, "Q"), (mh_baseline_distance, "P")])
def test_invalid_inputs_are_refused(adjust, chain):
    uniform = ProbabilityVector([0.5, 0.5])
    with pytest.raises(DimensionMismatch, match=f"dimensions of {chain} and pi disagree"):
        adjust(SparseStochasticMatrix.from_dense(np.eye(3)), uniform)
    # a nonnegative proposal whose rows hold more than 1 off the diagonal
    heavy = SparseStochasticMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]), stochastic=False)
    with pytest.raises(ValueError, match="off-diagonal mass exceeds 1"):
        adjust(heavy, uniform)


def test_feasibility_certificate(pattern_factory):
    # any symmetric full-diagonal pattern plus strictly positive target admits
    # a balanced chain supported on the pattern
    rng = np.random.default_rng(5)
    for seed in range(5):
        n = int(rng.integers(3, 9))
        pattern = pattern_factory(n, seed, extra_edges=2 * n)
        raw = rng.random(n) + 0.05
        pi = ProbabilityVector(raw / raw.sum())
        # the uniform random-walk proposal on the pattern
        T = reversibilize(row_normalize(pattern.csr), pi)
        assert detailed_balance_residual(T, pi) <= 1e-14
        assert stationarity_residual(T, pi) <= 1e-13
        assert T.nnz <= pattern.size
        assert pattern_positions(symmetrized_pattern(T)) <= pattern_positions(pattern)
