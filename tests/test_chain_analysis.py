import itertools
import logging
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from revmarkov import (
    BenchmarkConfig,
    DimensionMismatch,
    InconsistentSupport,
    NonPositivePi,
    PipelineOptions,
    ProbabilityVector,
    RevMarkovError,
    SparseStochasticMatrix,
    StationaryUnderflow,
    detailed_balance_residual,
    ergodic_decomposition,
    gen_random_chain,
    is_irreducible,
    kolmogorov_cycle_check,
    nearest_sparse_reversible,
    reversibilize,
    row_normalize,
    stationarity_residual,
    stationary_mixture,
    strongly_connected_components,
)

from revmarkov import chain_analysis
from revmarkov.chain_analysis import _closed_components

from chains import leaky_expander_chain, ring_chain, two_blocks_with_transients, wide_span_chain
from dense_oracle import gth_stationary
from test_sparse_core import dense_stationary


def lazy_uniform_mixture(n, eps):
    """(1 - eps) I + (eps / n) ones: irreducible, reversible, uniform pi."""
    return SparseStochasticMatrix.from_dense(
        (1.0 - eps) * np.eye(n) + (eps / n) * np.ones((n, n))
    )


class TestStationaryDistribution:
    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.05])
    def test_lazy_uniform_family(self, eps):
        P = lazy_uniform_mixture(6, eps)
        pi = stationary_mixture(P)
        assert np.abs(pi.values - 1.0 / 6.0).max() <= 1e-12

    def test_doubly_stochastic_gives_uniform(self):
        P = row_normalize(np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]]))
        pi = stationary_mixture(P)
        assert np.abs(pi.values - 1.0 / 3.0).max() <= 1e-12

    def test_ring4(self, ring4):
        pi = stationary_mixture(ring4.T)
        assert np.abs(pi.values - ring4.pi.values).max() <= 1e-12
        assert stationarity_residual(ring4.T, pi) <= 1e-13

    def test_residual_contract(self, chain_factory):
        P = chain_factory(12, 0)
        pi = stationary_mixture(P)
        assert stationarity_residual(P, pi) <= 1e-13

    def test_periodic_chain_uses_damping(self):
        # the uniform start is not stationary, so its iterates x0 P^k
        # oscillate on a 2-cycle; the closed-form solve must still return
        # the stationary vector (1/2, 1/4, 1/4)
        P = SparseStochasticMatrix.from_dense([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        pi = stationary_mixture(P)
        assert np.abs(pi.values - [0.5, 0.25, 0.25]).max() <= 1e-12

    def test_reducible_zero_set_marks_transients(self):
        # state 2 drains into the closed block {0, 1}
        P = SparseStochasticMatrix.from_dense(
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]]
        )
        pi = stationary_mixture(P)
        assert pi.support.tolist() == [0, 1]


class TestStationaryMixture:
    def test_matches_power_iteration_on_irreducible(self, chain_factory):
        for seed in range(4):
            P = chain_factory(8, seed)
            direct = stationary_mixture(P)
            # power iteration on the lazy chain (I + P)/2, which has the same
            # stationary vector and is aperiodic
            lazy = 0.5 * (np.eye(P.n) + P.toarray())
            powered = np.full(P.n, 1.0 / P.n)
            for _ in range(20_000):
                powered = powered @ lazy
            assert np.abs(powered @ lazy - powered).max() <= 1e-15
            assert np.abs(direct.values - powered).max() <= 1e-11

    def test_matches_dense_oracle(self, chain_factory):
        for n, seed in [(8, 0), (8, 1), (8, 2), (8, 3), (10, 11)]:
            P = chain_factory(n, seed)
            pi = stationary_mixture(P)
            assert np.abs(pi.values - dense_stationary(P.toarray())).max() <= 1e-12

    def test_exact_zeros_on_transients(self):
        P = SparseStochasticMatrix.from_dense(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.4]]
        )
        pi = stationary_mixture(P)
        assert pi.values[2] == 0.0
        # uniform start: each absorbing state gets 1/3 directly plus half of
        # the transient third
        assert np.allclose(pi.values[:2], 0.5)

    def test_metastable_chain_beats_power_iteration(self, butane):
        # the torsion chain's spectral gap is ~1e-5, far too small for plain
        # power iteration; the closed-form solve is exact regardless
        pi = stationary_mixture(butane.P)
        assert stationarity_residual(butane.P, pi) <= 1e-14

    def test_gth_handles_metastable(self):
        # nearly uncoupled two-block chain: power iteration would need ~1e7
        # iterations, while the class solve (sparse LU, GTH if rejected) is
        # exact
        eps = 1e-9
        P = SparseStochasticMatrix.from_dense(
            [
                [1.0 - eps, eps, 0.0],
                [eps, 1.0 - 2.0 * eps, eps],
                [0.0, eps, 1.0 - eps],
            ]
        )
        pi = stationary_mixture(P)
        assert stationarity_residual(P, pi) <= 1e-16
        # the chain is doubly stochastic, so the stationary vector is uniform
        assert np.allclose(pi.values, 1.0 / 3.0, atol=1e-12)

    def test_overflowing_visits_give_the_absorbed_pi(self):
        # state 0 leaves for the absorbing state 1 at a subnormal rate, so its
        # expected visits, 1 / 1.44e-319, overflow; the departures do not
        P = SparseStochasticMatrix.from_dense([[1.0, 1.44e-319], [0.0, 1.0]])
        assert stationary_mixture(P).values.tolist() == [0.0, 1.0]
        # states 1 and 2 leave for the absorbing state 0 at a rate of about
        # 1e-348 per step, and every walk ends in state 0
        P = SparseStochasticMatrix.from_dense(
            [
                [0.9999999999999999, 0.0, 0.0],
                [0.0, 1.0, 3.4937133565446957e-46],
                [2.5702954957231672e-317, 1.2993977941103033e-15, 0.9999999999999986],
            ]
        )
        assert stationary_mixture(P).values.tolist() == [1.0, 0.0, 0.0]
        _, diag = nearest_sparse_reversible(P)
        assert max(diag.residuals) <= 1e-15

    @pytest.mark.parametrize("seed", [15, 53, 97, 373, 2173])
    def test_out_of_range_values_stay_inside_the_solve(self, seed):
        # entries down to 1e-330 make expected visits overflow or row sums
        # underflow, on a different line of the stationary solve for each
        # chain; none may let a NumPy RuntimeWarning out (an error here).
        # Seed 97's transient state leaves at a subnormal rate, which the
        # departures of its jump chain resolve; the others are refused
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        dense = np.where(rng.random((n, n)) < 0.6, 10.0 ** rng.uniform(-330, 0, (n, n)), 0.0)
        dense[np.arange(n), np.arange(n)] += rng.random(n)
        P = SparseStochasticMatrix.from_dense(dense / dense.sum(axis=1, keepdims=True))
        if seed == 97:
            assert stationary_mixture(P).values.tolist() == [0.0, 1.0]
            return
        with pytest.raises(RevMarkovError, match="left the double range"):
            stationary_mixture(P)


def reachability(dense):
    """Boolean reachability closure (every state reaches itself) of the
    support digraph of a dense matrix, by Warshall's algorithm."""
    reach = dense != 0
    reach |= np.eye(reach.shape[0], dtype=bool)
    for k in range(reach.shape[0]):
        reach |= reach[:, [k]] & reach[k]
    return reach


def dense_mixture(P):
    """Independent oracle for ``stationary_mixture``: closed classes from a
    dense reachability closure, dense absorption solve from the uniform
    start, GTH on every class.

    A state is recurrent exactly when every state it reaches reaches it back,
    and then its class is the set of states it reaches.
    """
    dense = P.toarray()
    n = P.n
    reach = reachability(dense)
    recurrent = (reach <= reach.T).all(axis=1)
    closed = [np.flatnonzero(row) for row in np.unique(reach[recurrent], axis=0)]
    transient = np.flatnonzero(~recurrent)
    x0 = np.full(n, 1.0 / n)
    weights = np.array([x0[c].sum() for c in closed])
    if transient.size:
        B = np.column_stack([dense[np.ix_(transient, c)].sum(axis=1) for c in closed])
        T_block = dense[np.ix_(transient, transient)]
        weights += x0[transient] @ np.linalg.solve(np.eye(transient.size) - T_block, B)
    pi = np.zeros(n)
    for c, weight in zip(closed, weights):
        pi[c] = weight * gth_stationary(P.submatrix(c))
    return pi / pi.sum()


def periodic_chain(period, size, seed):
    """Irreducible chain of ``period`` groups of ``size`` states, each state
    stepping only into the next group (cyclically) along random edges."""
    rng = np.random.default_rng(seed)
    group = np.arange(period * size) % period
    mask = ((group[None, :] - group[:, None]) % period == 1) & (rng.random((group.size,) * 2) < 0.3)
    return row_normalize(np.where(mask, rng.random(mask.shape), 0.0))


def max_relative_deviation(values, reference):
    """Largest entrywise relative deviation; zeros of the reference must be
    matched exactly."""
    support = reference > 0.0
    assert np.array_equal(values > 0.0, support)
    return float(np.max(np.abs(values[support] - reference[support]) / reference[support]))


class TestSparseStationarySolve:
    """``stationary_mixture`` against the dense GTH oracle, entry by entry."""

    def test_underflow_is_named(self):
        # pi falls by 1e-12 a state, so it underflows to 0 from state 27 on
        # (the smallest positive mass is 3e-312)
        W = 0.5 * np.eye(40)
        W[np.arange(39), np.arange(1, 40)] = 1e-12
        W[np.arange(1, 40), np.arange(39)] = 1.0
        P = row_normalize(W)
        for call in (stationary_mixture, nearest_sparse_reversible):
            with pytest.raises(StationaryUnderflow, match=r"pi\[27\] underflowed") as err:
                call(P)
            assert isinstance(err.value, NonPositivePi) and err.value.state == 27
        # a supplied vector with the same zeros is judged as before
        values = np.zeros(40)
        values[:27] = 0.5 ** np.arange(1, 28)
        with pytest.raises(InconsistentSupport):
            nearest_sparse_reversible(P, PipelineOptions(pi=ProbabilityVector(values / values.sum())))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_chains_match_gth(self, chain_factory, seed):
        P = chain_factory(40, seed, density=0.1)
        pi = stationary_mixture(P)
        assert max_relative_deviation(pi.values, gth_stationary(P)) <= 1e-10

    def test_torsion_chain_matches_gth(self, butane):
        assert is_irreducible(butane.P)
        pi = stationary_mixture(butane.P)
        reference = gth_stationary(butane.P)
        assert max_relative_deviation(pi.values, reference) <= 1e-10

    def test_ring_matches_gth_without_fallback(self, caplog):
        # the ring mixes too slowly for the sweep, so sparse LU solves it
        P = ring_chain(1.0 + 0.1 * np.random.default_rng(0).random(3000))
        with caplog.at_level(logging.DEBUG, logger="revmarkov.chain_analysis"):
            pi = stationary_mixture(P)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith("class of 1000 states (sweep declined at step")
        assert "by sparse LU: residual" in record.getMessage()
        assert max_relative_deviation(pi.values, gth_stationary(P)) <= 1e-10

    def test_expander_is_solved_by_the_sweep(self, caplog):
        P = gen_random_chain(BenchmarkConfig(n_min=800, n_max=800, seed=1), 0)
        with caplog.at_level(logging.DEBUG, logger="revmarkov.chain_analysis"):
            stationary_mixture(P)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert "792 states by the jump-chain sweep" in record.getMessage()
        # the weight-3/4 step converges in at most 100 steps (140 at weight 1/2)
        assert int(record.getMessage().split(": ")[1].split()[0]) <= 100

    @pytest.mark.parametrize("period", [2, 3])
    def test_periodic_classes_are_solved_by_the_sweep(self, caplog, period):
        # the damped step maps the eigenvalues of a period-p class on the
        # unit circle inside it, so the sweep keeps the class
        P = periodic_chain(period, 40, seed=0)
        assert is_irreducible(P)
        with caplog.at_level(logging.DEBUG, logger="revmarkov.chain_analysis"):
            pi = stationary_mixture(P)
        [record] = caplog.records
        assert f"class of {40 * period} states by the jump-chain sweep" in record.getMessage()
        assert max_relative_deviation(pi.values, gth_stationary(P)) <= 1e-12

    def test_leaky_expander_flows_are_solved_by_the_sweep(self, caplog):
        # every transient row leaks the same 1e-6, so a walk survives k steps
        # with probability (1 - leak)^k whatever its path: the uniform start
        # x0 sends x0 P^k (1 - leak)^k . leaks to the absorbing states at step
        # k, and P^k has mixed to its stationary shape after 200 steps.  The
        # sweep takes about 0.01 s on a 2-core VM; sparse LU, rejected here,
        # then GTH elimination take about 110 s
        leak = 1e-6
        P = leaky_expander_chain(leak)
        with caplog.at_level(logging.DEBUG, logger="revmarkov.chain_analysis"):
            start = time.perf_counter()
            pi = stationary_mixture(P)
            elapsed = time.perf_counter() - start
        assert elapsed <= 2.0
        [record] = caplog.records
        assert "transient flows of 4930 states by the jump-chain sweep" in record.getMessage()
        m = P.n - 2
        step, leaks = P.csr[:m][:, :m].T.tocsr(), P.csr[:m][:, m:].toarray()
        flow, absorbed = np.full(m, 1.0 / P.n), np.zeros(2)
        for _ in range(200):
            absorbed += flow @ leaks
            flow = step @ flow
        absorbed += (flow @ leaks) / leak
        mass = 1.0 / P.n + absorbed
        assert np.all(pi.values[:m] == 0.0)
        assert np.allclose(pi.values[m:], mass / mass.sum(), rtol=1e-12, atol=0.0)

    def test_start_at_the_floor_goes_to_lu(self, caplog):
        # uniform pi balances from the start, so the sweep observes no
        # contraction and may not certify its iterate
        P = lazy_uniform_mixture(50, 0.3)
        with caplog.at_level(logging.DEBUG, logger="revmarkov.chain_analysis"):
            pi = stationary_mixture(P)
        [record] = caplog.records
        assert record.getMessage().startswith("class of 50 states")
        assert "by sparse LU" in record.getMessage()
        assert np.allclose(pi.values, 1.0 / 50, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("n", [200, 800, 2000])
    def test_sweep_accepted_expanders_match_gth(self, caplog, n, case):
        P = gen_random_chain(BenchmarkConfig(n_min=n, n_max=n, seed=1), case)
        with caplog.at_level(logging.DEBUG, logger="revmarkov.chain_analysis"):
            pi = stationary_mixture(P)
        [record] = caplog.records
        assert "jump-chain sweep" in record.getMessage()
        assert max_relative_deviation(pi.values, gth_stationary(P)) <= 1e-12

    def test_wide_span_chains_match_gth(self):
        # entries spanning 1e-8 to 1 on 2-11 states, a quarter bipartite;
        # whichever method keeps each class must agree with GTH entrywise
        for seed in range(100, 300):
            P = wide_span_chain(seed)
            assert is_irreducible(P)
            reference = gth_stationary(P)
            assert max_relative_deviation(stationary_mixture(P).values, reference) <= 1e-11

    def test_metastable_ring_falls_back_to_gth(self, caplog):
        # min pi is about 3e-12: plain sparse LU is off by ~1e-6 relative
        # there, so the componentwise residual guard must reject it, and
        # sparse GTH elimination solves the class without a warning
        P = ring_chain(np.random.default_rng(1).random(3000) + 0.1)
        with caplog.at_level(logging.DEBUG, logger="revmarkov.chain_analysis"):
            pi = stationary_mixture(P)
        reference = gth_stationary(P)
        assert reference.min() < 1e-11
        assert max_relative_deviation(pi.values, reference) <= 1e-12
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.name == "revmarkov.chain_analysis"
        message = record.getMessage()
        assert message.startswith("class of 1000 states (sweep declined at step")
        assert "by GTH elimination: sparse LU residual" in message
        rejected = float(message.split("sparse LU residual ")[1].split()[0])
        assert rejected > 1e-12

    @pytest.mark.parametrize(
        "make_chain",
        [
            lambda factory: SparseStochasticMatrix.from_dense(
                [
                    [1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.5, 0.5, 0.0],
                    [0.0, 0.0, 0.5, 0.5, 0.0],
                    [0.25, 0.25, 0.2, 0.2, 0.1],
                ]
            ),
            lambda factory: two_blocks_with_transients(),
            lambda factory: factory(30, 15, density=0.05, ensure_irreducible=False),
        ],
        ids=["transient_block", "two_blocks_with_transients", "random_reducible"],
    )
    def test_absorption_matches_dense_formula(self, chain_factory, make_chain):
        P = make_chain(chain_factory)
        pi = stationary_mixture(P)
        assert max_relative_deviation(pi.values, dense_mixture(P)) <= 1e-10
        # the case needs transient states and several closed classes
        assert 0 < pi.support.size < P.n
        assert len(ergodic_decomposition(P, pi).classes) >= 2


    @pytest.mark.parametrize(
        "dense, expected",
        [
            ([[1.0, 0.0], [1e-17, 1.0]], [1.0, 0.0]),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3e-17, 1e-17, 1.0]], [7 / 12, 5 / 12, 0.0]),
            ([[1.0, 0.0, 0.0], [1e-17, 0.0, 1.0], [1e-17, 1.0, 0.0]], [1.0, 0.0, 0.0]),
        ],
        ids=["one_class", "two_classes", "transient_cycle"],
    )
    def test_transient_self_loop_that_rounds_to_one(self, dense, expected):
        # each transient row keeps exactly 1.0 among the transient states:
        # 1 - p_TT rounds to zero while the leaks do not, so the visits must
        # come from the leaks' sum (the cycle's LU factor is exactly singular)
        P = SparseStochasticMatrix.from_dense(dense)
        transient = np.flatnonzero(np.array(expected) == 0.0)
        assert np.all(P.toarray()[np.ix_(transient, transient)].sum(axis=1) == 1.0)
        pi = stationary_mixture(P)
        assert np.allclose(pi.values, expected, rtol=1e-15, atol=0.0)
        assert np.all(pi.values[transient] == 0.0)
        R, diag = nearest_sparse_reversible(P)
        assert max(diag.residuals) <= 1e-10
        assert diag.transient.tolist() == transient.tolist()
        assert np.array_equal(R.toarray()[transient], P.toarray()[transient])


class TestStronglyConnectedComponents:
    def test_irreducible_single_component(self, chain_factory):
        P = chain_factory(7, 2)
        components = strongly_connected_components(P)
        assert len(components) == 1
        assert components[0].tolist() == list(range(7))

    def test_ring4_adjusted_three_components(self, ring4):
        adjusted = SparseStochasticMatrix.from_dense(ring4.adjusted)
        components = strongly_connected_components(adjusted)
        assert [c.tolist() for c in components] == [[0], [1], [2, 3]]

    def test_block_diagonal(self, reversible_factory):
        A, _ = reversible_factory(3, 0)
        B, _ = reversible_factory(4, 1)
        P = np.zeros((7, 7))
        P[:3, :3] = A.toarray()
        P[3:, 3:] = B.toarray()
        components = strongly_connected_components(SparseStochasticMatrix.from_dense(P))
        assert sorted(c.tolist() for c in components) == [[0, 1, 2], [3, 4, 5, 6]]

    def test_reverse_topological_order(self):
        # 0 -> 1 -> 2 with self loops: sinks must come out first
        P = SparseStochasticMatrix.from_dense(
            [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]
        )
        components = strongly_connected_components(P)
        assert [c.tolist() for c in components] == [[2], [1], [0]]

    def test_matches_reachability_partition(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 61))
            density = rng.uniform(0.0, min(1.0, 4.0 / n))
            # sparse random digraphs, so rows without edges are common
            adjacency = sp.random(n, n, density=density, format="csr", random_state=rng)
            components = strongly_connected_components(adjacency)
            reach = reachability(adjacency.toarray())
            partition = {tuple(np.flatnonzero(row)) for row in reach & reach.T}
            assert sorted(tuple(c.tolist()) for c in components) == sorted(partition)
            emitted = np.empty(n, dtype=np.intp)
            for position, members in enumerate(components):
                assert np.all(np.diff(members) > 0)
                emitted[members] = position
            rows, cols = adjacency.nonzero()
            # an edge leads only to the same component or to one emitted earlier
            assert np.all(emitted[rows] >= emitted[cols])

    def test_deterministic(self, chain_factory):
        P = chain_factory(20, 8, density=0.15, ensure_irreducible=False)
        first = strongly_connected_components(P)
        second = strongly_connected_components(P)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestIsIrreducible:
    def test_ring4(self, ring4):
        assert is_irreducible(ring4.T)

    def test_ring4_adjusted(self, ring4):
        assert not is_irreducible(SparseStochasticMatrix.from_dense(ring4.adjusted))

    def test_identity(self):
        assert not is_irreducible(SparseStochasticMatrix.from_dense(np.eye(3)))


class TestErgodicDecomposition:
    def test_irreducible_single_class(self, chain_factory):
        P = chain_factory(6, 1)
        pi = stationary_mixture(P)
        dec = ergodic_decomposition(P, pi)
        assert len(dec.classes) == 1
        assert dec.transient.size == 0
        assert dec.classes[0].tolist() == list(range(6))

    def test_ring4_adjusted_three_classes(self, ring4):
        adjusted = SparseStochasticMatrix.from_dense(ring4.adjusted)
        pi = stationary_mixture(adjusted)
        dec = ergodic_decomposition(adjusted, pi)
        assert len(dec.classes) == 3
        assert dec.transient.size == 0

    def test_transient_block(self):
        # two closed blocks feeding nothing, one transient block feeding both
        P = np.zeros((5, 5))
        P[0, 0] = P[1, 1] = 1.0
        P[2, 2:4] = [0.5, 0.5]
        P[3, 2:4] = [0.5, 0.5]
        P[4] = [0.25, 0.25, 0.2, 0.2, 0.1]
        P = SparseStochasticMatrix.from_dense(P)
        pi = stationary_mixture(P)
        dec = ergodic_decomposition(P, pi)
        assert dec.transient.tolist() == [4]
        assert sorted(c.tolist() for c in dec.classes) == [[0], [1], [2, 3]]

    def test_closed_components_come_in_order_of_first_state(self):
        # SciPy labels the components 2, 1, 3, 0, 0 here, so label order
        # lists the class {3, 4} before the class {1}
        P = SparseStochasticMatrix.from_dense(
            [
                [0.2, 0.3, 0.0, 0.5, 0.0],
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [0.2, 0.0, 0.3, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.0, 0.5, 0.5],
            ]
        )
        closed, transient = _closed_components(P)
        assert [c.tolist() for c in closed] == [[1], [3, 4]]
        assert transient.tolist() == [0, 2]
        pi = stationary_mixture(P)
        assert [c.tolist() for c in ergodic_decomposition(P, pi).classes] == [[1], [3, 4]]
        _, diag = nearest_sparse_reversible(P)
        assert [c.indices.tolist() for c in diag.per_class] == [[1], [3, 4]]

    def test_classes_are_closed(self, chain_factory):
        P = chain_factory(9, 4)
        pi = stationary_mixture(P)
        dec = ergodic_decomposition(P, pi)
        for members in dec.classes:
            block = P.csr[members][:, members]
            sums = np.asarray(block.sum(axis=1)).ravel()
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_inconsistent_support_detected(self, chain_factory):
        P = chain_factory(5, 6)  # irreducible: every state has outflow
        fake = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        with pytest.raises(InconsistentSupport):
            ergodic_decomposition(P, ProbabilityVector(fake))

    @pytest.mark.parametrize("size", [4, 6])
    def test_pi_of_wrong_size_rejected(self, chain_factory, size):
        with pytest.raises(DimensionMismatch, match="dimensions of P and pi disagree"):
            ergodic_decomposition(chain_factory(5, 6), ProbabilityVector(np.ones(size) / size))

    def test_mass_on_transient_state_detected(self):
        P = two_blocks_with_transients()
        values = stationary_mixture(P).values.copy()
        assert values[7:].max() == 0.0
        values[[0, 8]] += [-0.01, 0.01]
        with pytest.raises(InconsistentSupport) as err:
            ergodic_decomposition(P, ProbabilityVector(values))
        # the transient state is the one that sends mass off the classes
        assert err.value.state == 8
        assert err.value.outflow == pytest.approx(P.toarray()[8, 7:].sum())
        with pytest.raises(InconsistentSupport):
            nearest_sparse_reversible(P, PipelineOptions(pi=ProbabilityVector(values)))
        # a transient state that sends everything into the classes is named too
        P = SparseStochasticMatrix.from_dense([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        with pytest.raises(InconsistentSupport) as err:
            ergodic_decomposition(P, ProbabilityVector([0.4, 0.4, 0.2]))
        assert (err.value.state, err.value.outflow) == (2, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_classes_are_closed_components_with_mass(self, data):
        n = data.draw(st.integers(1, 9), label="n")
        weights = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0]), min_size=n * n, max_size=n * n
            ),
            label="weights",
        )
        dense = np.array(weights).reshape(n, n)
        empty = dense.sum(axis=1) == 0.0
        dense[empty, empty] = 1.0
        P = row_normalize(dense)
        pi = stationary_mixture(P)
        dec = ergodic_decomposition(P, pi)
        # independent oracle: closed classes from the reachability closure
        reach = reachability(dense)
        recurrent = (reach <= reach.T).all(axis=1)
        closed = {tuple(np.flatnonzero(row).tolist()) for row in reach[recurrent]}
        with_mass = sorted(c for c in closed if pi.values[list(c)].sum() > 0.0)
        assert [tuple(c.tolist()) for c in dec.classes] == with_mass
        assert dec.transient.tolist() == np.flatnonzero(pi.values == 0.0).tolist()
        # relabelling the states relabels the classes
        perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
        permuted = SparseStochasticMatrix.from_dense(P.toarray()[np.ix_(perm, perm)])
        dec_perm = ergodic_decomposition(permuted, stationary_mixture(permuted))
        relabelled = sorted(tuple(sorted(perm[c].tolist())) for c in dec_perm.classes)
        assert relabelled == with_mass


def simple_cycles(dense):
    """Every simple cycle of length 3 or more of the support digraph of a
    small dense matrix, each once, from its smallest state."""
    n = len(dense)
    for k in range(3, n + 1):
        for states in itertools.combinations(range(n), k):
            for rest in itertools.permutations(states[1:]):
                cycle = states[:1] + rest
                if all(dense[a, b] > 0.0 for a, b in zip(cycle, cycle[1:] + cycle[:1])):
                    yield cycle


def cycle_products(dense, cycle):
    ahead = list(cycle[1:] + cycle[:1])
    return np.prod(dense[list(cycle), ahead]), np.prod(dense[ahead, list(cycle)])


def violates(dense, cycle):
    forward, reverse = cycle_products(dense, cycle)
    return abs(forward - reverse) > 1e-10 * max(forward, reverse)


def block_diagonal_classes(count, perturbed=None):
    """``count`` reversible three-state classes, then a transient path of 10
    states whose last state leaks into the first class; the class numbered
    ``perturbed`` has one entry raised."""
    rng = np.random.default_rng(5)
    blocks = []
    for c in range(count):
        W = rng.random((3, 3))
        W = W + W.T
        if c == perturbed:
            W[0, 1] *= 1.5
        blocks.append(W)
    path = np.eye(10) + 0.5 * np.eye(10, k=1) + 0.25 * np.eye(10, k=-1)
    P = sp.block_diag(blocks + [path], format="lil")
    P[3 * count + 9, 0] = 0.5
    return row_normalize(P.tocsr())


class TestKolmogorovCycleCheck:
    def test_symmetric_passes(self):
        P = row_normalize(np.full((5, 5), 0.2))
        assert kolmogorov_cycle_check(P).passed

    def test_ring4_violation(self, ring4):
        result = kolmogorov_cycle_check(ring4.T)
        assert not result.passed
        assert result.cycle == (0, 1, 2)
        assert result.forward_product == pytest.approx(0.5)
        assert result.reverse_product == 0.0
        assert result.log_sum == np.inf

    def test_pass_reports_zero_log_sum(self):
        assert kolmogorov_cycle_check(row_normalize(np.full((5, 5), 0.2))).log_sum == 0.0

    def test_long_cycle_reports_log_sum_where_products_underflow(self):
        P = ring_chain(1.0 + 0.1 * np.random.default_rng(0).random(3000))
        result = kolmogorov_cycle_check(P)
        assert not result.passed
        assert len(result.cycle) == 1000
        assert result.forward_product == result.reverse_product == 0.0
        assert np.isfinite(result.log_sum) and abs(result.log_sum) > 1e-3
        dense = P.toarray()
        cycle = list(result.cycle)
        ahead = cycle[1:] + cycle[:1]
        exact = np.sum(np.log(dense[cycle, ahead]) - np.log(dense[ahead, cycle]))
        assert result.log_sum == pytest.approx(exact, abs=1e-12)

    def test_reversibilized_chain_passes(self, chain_factory):
        P = chain_factory(6, 12)
        pi = stationary_mixture(P)
        T = reversibilize(P, pi)
        assert detailed_balance_residual(T, pi) <= 1e-14
        assert kolmogorov_cycle_check(T).passed

    def test_balanced_implies_pass(self, reversible_factory):
        for seed in range(3):
            P, pi = reversible_factory(6, seed)
            assert detailed_balance_residual(P, pi) <= 1e-15
            assert kolmogorov_cycle_check(P).passed

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_enumeration(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        weights = data.draw(
            st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]), min_size=n * n, max_size=n * n),
            label="weights",
        )
        W = np.array(weights).reshape(n, n)
        kind = data.draw(st.sampled_from(["reversible", "perturbed", "one-way"]), label="kind")
        if kind != "one-way":
            W = W + W.T
            edges = np.argwhere((W > 0.0) & ~np.eye(n, dtype=bool))
            if kind == "perturbed" and edges.size:
                i, j = edges[data.draw(st.integers(0, len(edges) - 1), label="edge")]
                W[i, j] *= data.draw(st.sampled_from([0.5, 1.5, 3.0]), label="factor")
        empty = W.sum(axis=1) == 0.0
        W[empty, empty] = 1.0
        P = row_normalize(W)
        dense = P.toarray()
        result = kolmogorov_cycle_check(P)
        assert result.passed == (not any(violates(dense, c) for c in simple_cycles(dense)))
        if not result.passed:
            assert result.cycle in set(simple_cycles(dense))
            assert violates(dense, result.cycle)
            forward, reverse = cycle_products(dense, result.cycle)
            assert (result.forward_product, result.reverse_product) == (forward, reverse)
            if reverse == 0.0:
                assert result.log_sum == np.inf
            else:
                assert result.log_sum == pytest.approx(np.log(forward / reverse), abs=1e-12)

    def test_expander_and_ring_outputs_pass(self, monkeypatch):
        # every chord's log-sum mismatch is at most 1e-12
        monkeypatch.setattr(chain_analysis, "CYCLE_TOLERANCE", 1e-12)
        expander = gen_random_chain(BenchmarkConfig(n_min=800, n_max=800, seed=1), 0)
        ring = ring_chain(1.0 + 0.1 * np.random.default_rng(0).random(30_000))
        for P in (expander, ring):
            # the input has one-way edges (expander) or a biased cycle (ring)
            assert not kolmogorov_cycle_check(P).passed
            R, _ = nearest_sparse_reversible(P)
            assert kolmogorov_cycle_check(R).passed

    def test_many_classes_with_transient_path(self):
        assert kolmogorov_cycle_check(block_diagonal_classes(1000)).passed
        result = kolmogorov_cycle_check(block_diagonal_classes(1000, perturbed=617))
        assert not result.passed
        assert result.cycle == (3 * 617, 3 * 617 + 1, 3 * 617 + 2)
