import numpy as np
import pytest

from dense_oracle import pattern_positions
from revmarkov import (
    AcceptanceRule,
    NonPositivePi,
    ProbabilityVector,
    SparseStochasticMatrix,
    detailed_balance_residual,
    frobenius_distance,
    mh_baseline_distance,
    reversibilize,
    row_normalize,
    stationarity_residual,
    stationary_mixture,
    stochasticity_residual,
    symmetrized_pattern,
)


class TestReversibilize:
    def test_ring4_metropolis_is_exact(self, ring4):
        T = reversibilize(ring4.T, ring4.pi, AcceptanceRule.METROPOLIS_HASTINGS)
        assert np.abs(T.toarray() - ring4.adjusted).max() <= 1e-15

    def test_balanced_proposal_unchanged(self):
        Q = SparseStochasticMatrix.from_dense(np.full((4, 4), 0.25))
        pi = ProbabilityVector(np.full(4, 0.25))
        T = reversibilize(Q, pi, AcceptanceRule.METROPOLIS_HASTINGS)
        assert np.abs(T.toarray() - Q.toarray()).max() <= 1e-16

    def test_barker_halves_symmetric_proposal(self):
        dense = np.array(
            [
                [0.4, 0.3, 0.3],
                [0.3, 0.4, 0.3],
                [0.3, 0.3, 0.4],
            ]
        )
        Q = SparseStochasticMatrix.from_dense(dense)
        pi = ProbabilityVector(np.full(3, 1.0 / 3.0))
        T = reversibilize(Q, pi, AcceptanceRule.BARKER).toarray()
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(T[off], dense[off] / 2.0)
        assert np.allclose(T.sum(axis=1), 1.0)

    @pytest.mark.parametrize("rule", list(AcceptanceRule))
    @pytest.mark.parametrize("seed", range(5))
    def test_output_contracts(self, chain_factory, rule, seed):
        Q = chain_factory(8, seed, density=0.35)
        pi = stationary_mixture(Q)
        T = reversibilize(Q, pi, rule)
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

    @pytest.mark.parametrize("rule", list(AcceptanceRule))
    def test_matches_dense_formula(self, chain_factory, rule):
        for seed in range(5):
            Q = chain_factory(12, seed, density=0.3)
            pi = stationary_mixture(Q).values
            flux = pi[:, None] * Q.toarray()
            np.fill_diagonal(flux, 0.0)
            if rule is AcceptanceRule.METROPOLIS_HASTINGS:
                kept = np.minimum(flux, flux.T)
            else:
                total = flux + flux.T
                kept = np.divide(flux * flux.T, total, out=np.zeros_like(total), where=total > 0)
            expected = kept / pi[:, None]
            expected[np.diag_indices(12)] = 1.0 - expected.sum(axis=1)
            T = reversibilize(Q, ProbabilityVector(pi), rule)
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


class TestMHBaselineDistance:
    def test_reversible_input_is_zero(self, reversible_factory):
        P, pi = reversible_factory(7, 3)
        assert mh_baseline_distance(P, pi) <= 1e-13

    def test_matches_direct_computation(self, chain_factory):
        P = chain_factory(9, 21)
        pi = stationary_mixture(P)
        expected = frobenius_distance(
            reversibilize(P, pi, AcceptanceRule.METROPOLIS_HASTINGS), P
        )
        assert mh_baseline_distance(P, pi) == pytest.approx(expected, rel=1e-12)

    def test_desk_scale_butane(self, butane):
        # the adjustment must move the chain, but only modestly: asymmetry of
        # lag-1 counts from one wrapped 1d trajectory is winding-dominated
        distance = mh_baseline_distance(butane.P, stationary_mixture(butane.P))
        assert 0.0 < distance < 0.2


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
