import json
import logging
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revmarkov import (
    BenchmarkConfig,
    ClassSolveFailed,
    DimensionMismatch,
    MissingDiagonal,
    PatternNotSymmetric,
    PipelineOptions,
    ProbabilityVector,
    RevMarkovError,
    SolverOptions,
    SparseStochasticMatrix,
    SparsityPattern,
    build_reduced_qp,
    chain_analysis,
    detailed_balance_residual,
    ergodic_decomposition,
    frobenius_distance,
    gen_random_chain,
    mh_baseline_distance,
    nearest_sparse_reversible,
    qp_solve,
    reversibilize,
    row_normalize,
    solve_qp,
    stationary_mixture,
    symmetrized_pattern,
    unscale_solution,
    verify,
)

from chains import edge_of_range_chain, ring_chain, two_blocks_with_transients, wide_span_chain
from dense_oracle import (
    oracle_solve,
    pattern_positions,
    reference_jump_chain_sweep,
    reference_newton_pcg,
    same_result,
)


class TestNearestSparseReversible:
    def test_reversible_input_is_fixed_point(self, reversible_factory):
        P, _ = reversible_factory(8, 0)
        R, diag = nearest_sparse_reversible(P)
        assert diag.distance <= 1e-10
        assert np.abs(R.toarray() - P.toarray()).max() <= 1e-10

    def test_residuals_at_machine_precision(self, chain_factory):
        P = chain_factory(12, 3)
        R, diag = nearest_sparse_reversible(P)
        stoch, balance, stat = diag.residuals
        assert stoch <= 1e-12
        assert balance <= 1e-14
        assert stat <= 1e-13

    def test_dominates_mh_baseline(self, chain_factory):
        for seed in range(5):
            P = chain_factory(10, seed)
            _, diag = nearest_sparse_reversible(P)
            assert diag.distance <= diag.mh_distance + 1e-10

    def test_pattern_containment(self, chain_factory):
        P = chain_factory(9, 8)
        R, _ = nearest_sparse_reversible(P)
        allowed = pattern_positions(symmetrized_pattern(P))
        assert pattern_positions(symmetrized_pattern(R)) <= allowed

    def test_idempotent(self, chain_factory):
        P = chain_factory(8, 10)
        R, _ = nearest_sparse_reversible(P)
        R2, diag2 = nearest_sparse_reversible(R)
        assert diag2.distance <= 1e-9
        assert np.abs(R2.toarray() - R.toarray()).max() <= 1e-9

    def test_nnz_does_not_shrink(self, chain_factory):
        # reversibility couples forward and backward edges
        for seed in range(4):
            P = chain_factory(10, 30 + seed, density=0.25)
            R, diag = nearest_sparse_reversible(P)
            assert diag.nnz_output >= diag.nnz_input - 2  # ties can drop zeros

    def test_permutation_equivariance(self, chain_factory):
        P = chain_factory(7, 17)
        R, _ = nearest_sparse_reversible(P)
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        dense = P.toarray()[np.ix_(perm, perm)]
        R_perm, _ = nearest_sparse_reversible(SparseStochasticMatrix.from_dense(dense))
        assert np.abs(R_perm.toarray() - R.toarray()[np.ix_(perm, perm)]).max() <= 1e-9

    @pytest.mark.parametrize("recurse", [True, False])
    def test_recurrent_states_below_zero_threshold(self, recurse):
        # a periodic ring whose min pi is 5e-19: 360 of its 1000 recurrent
        # states fall under the support threshold, yet the chain is one class
        P = ring_chain(np.random.default_rng(4).random(3000) + 0.1)
        assert stationary_mixture(P).support.size == 640
        R, diag = nearest_sparse_reversible(P, PipelineOptions(recurse_ergodic=recurse))
        assert diag.num_classes == 1
        assert diag.transient.size == 0
        assert max(diag.residuals) <= 1e-10
        assert diag.distance <= diag.mh_distance

    def test_perturbed_block_localizes_delta(self):
        P = two_blocks_with_transients(perturb=True)
        R, diag = nearest_sparse_reversible(P)
        delta = R.toarray() - P.toarray()
        # the clean block and transient rows stay untouched
        assert np.abs(delta[3:7, :]).max() <= 1e-11
        assert np.abs(delta[7:, :]).max() == 0.0
        assert np.abs(delta[:3, :3]).max() > 1e-3

    def test_transient_rows_copied_verbatim(self):
        P = two_blocks_with_transients()
        R, diag = nearest_sparse_reversible(P)
        assert diag.transient.tolist() == [7, 8, 9]
        assert np.array_equal(R.toarray()[7:], P.toarray()[7:])

    def test_reducible_diagnostics(self):
        P = two_blocks_with_transients()
        _, diag = nearest_sparse_reversible(P)
        assert diag.num_classes == 2
        assert sorted(len(c.indices) for c in diag.per_class) == [3, 4]
        # squared distances add up across classes
        per_class = sum(c.distance**2 for c in diag.per_class)
        assert diag.distance**2 == pytest.approx(per_class, rel=1e-10)

    @pytest.mark.parametrize("recurse", [True, False])
    def test_totals_match_direct_computation(self, recurse):
        P = two_blocks_with_transients()
        R, diag = nearest_sparse_reversible(P, PipelineOptions(recurse_ergodic=recurse))
        pi = stationary_mixture(P)
        classes = ergodic_decomposition(P, pi).classes if recurse else [pi.support]
        mh = [
            mh_baseline_distance(P.submatrix(c), pi.restrict(c))
            for c in classes
        ]
        assert diag.distance == pytest.approx(frobenius_distance(R, P), rel=1e-12)
        assert diag.mh_distance == pytest.approx(np.sqrt(np.sum(np.square(mh))), rel=1e-12)

    def test_explicit_pi_override(self, chain_factory):
        P = chain_factory(6, 23)
        pi = ProbabilityVector(np.full(6, 1.0 / 6.0))
        R, diag = nearest_sparse_reversible(P, PipelineOptions(pi=pi))
        assert detailed_balance_residual(R, pi) <= 1e-13
        # R now preserves the overridden target, not the chain's own
        assert verify(R, pi)[2] <= 1e-13

    def test_pattern_override(self, chain_factory):
        P = chain_factory(6, 29)
        pattern = SparsityPattern(np.ones((6, 6)))
        R_full, diag_full = nearest_sparse_reversible(P, PipelineOptions(pattern=pattern))
        R_auto, diag_auto = nearest_sparse_reversible(P)
        # a larger admissible pattern can only get closer
        assert diag_full.distance <= diag_auto.distance + 1e-12

    def test_no_recurse_matches_recursed_result(self):
        P = two_blocks_with_transients()
        R_split, diag_split = nearest_sparse_reversible(P)
        R_whole, diag_whole = nearest_sparse_reversible(
            P, PipelineOptions(recurse_ergodic=False)
        )
        assert diag_whole.num_classes == 1
        # same feasible set, same unique optimum
        assert np.abs(R_split.toarray() - R_whole.toarray()).max() <= 1e-9

    def test_solver_options_passthrough(self, chain_factory):
        P = chain_factory(6, 31)
        options = PipelineOptions(solver=SolverOptions(kkt_tolerance=1e-12, max_iterations=5000))
        R, diag = nearest_sparse_reversible(P, options)
        assert max(diag.residuals) <= 1e-10
        assert all(max(c.kkt_residuals) <= 1e-12 for c in diag.per_class)

    def test_class_failures_are_aggregated(self):
        # small self-loops leave both classes an optimum with an active bound,
        # so one Newton step cannot solve either; the error must carry every
        # failure, not just the first
        rng = np.random.default_rng(0)
        blocks = [rng.random((k, k)) for k in (3, 4)]
        for block in blocks:
            np.fill_diagonal(block, 0.01)
        P = row_normalize(sp.block_diag(blocks).toarray())
        pi = stationary_mixture(P)
        for members in ergodic_decomposition(P, pi).classes:
            block = P.submatrix(members)
            qp = build_reduced_qp(block, pi.restrict(members), symmetrized_pattern(block))
            assert (solve_qp(qp).y == 0.0).any()
        options = PipelineOptions(solver=SolverOptions(max_iterations=1))
        with pytest.raises(ClassSolveFailed) as err:
            nearest_sparse_reversible(P, options)
        assert len(err.value.failures) == 2
        # the states print as plain ints
        message = str(err.value)
        assert message.startswith("2 ergodic class solve(s) failed ([0, 1, 2]: MaxIterations(")
        assert ", [3, 4, 5, 6]: MaxIterations(" in message

    def test_class_failures_come_out_in_class_order(self):
        # small self-loops leave every class an optimum with an active bound,
        # so one Newton step cannot solve it; the failures must be listed in
        # class order
        sizes = [40, 3, 3, 3, 3, 3]
        rng = np.random.default_rng(18)
        blocks = [rng.random((k, k)) for k in sizes]
        for block in blocks:
            np.fill_diagonal(block, 0.01)
        P = row_normalize(sp.block_diag(blocks).toarray())
        options = PipelineOptions(
            solver=SolverOptions(max_iterations=1, kkt_tolerance=1e-16)
        )
        with pytest.raises(ClassSolveFailed) as err:
            nearest_sparse_reversible(P, options)
        starts = np.cumsum([0] + sizes[:-1])
        assert [members[0] for members, _ in err.value.failures] == starts.tolist()
        assert [members.size for members, _ in err.value.failures] == sizes

    def test_class_blocks_match_separate_solves(self):
        # the reports come out in class order, and each class block of the
        # result is that class solved on its own
        P = two_blocks_with_transients()
        pi = stationary_mixture(P)
        classes = ergodic_decomposition(P, pi).classes
        R, diag = nearest_sparse_reversible(P)
        assert [c.indices.tolist() for c in diag.per_class] == [
            members.tolist() for members in classes
        ]
        for members in classes:
            alone, _ = nearest_sparse_reversible(
                P.submatrix(members),
                PipelineOptions(pi=pi.restrict(members)),
            )
            block = R.toarray()[np.ix_(members, members)]
            assert np.array_equal(block, alone.toarray())


class TestRandomReducibleChains:
    @staticmethod
    def random_reducible(seed):
        """Random block chain: 2-4 closed classes plus a few transient states."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 6, size=rng.integers(2, 5))
        blocks = []
        for s, size in enumerate(sizes):
            gen = np.random.default_rng(1000 * seed + s)
            W = gen.random((size, size)) + np.eye(size)
            blocks.append(W / W.sum(axis=1, keepdims=True))
        t = int(rng.integers(1, 4))
        n = int(sizes.sum()) + t
        P = np.zeros((n, n))
        offset = 0
        for block in blocks:
            k = block.shape[0]
            P[offset : offset + k, offset : offset + k] = block
            offset += k
        for row in range(offset, n):
            weights = rng.random(n) * 0.2
            weights[row] += 0.4
            P[row] = weights / weights.sum()
        return SparseStochasticMatrix.from_dense(P), offset

    @pytest.mark.parametrize("seed", range(8))
    def test_properties_hold(self, seed):
        P, recurrent = self.random_reducible(seed)
        R, diag = nearest_sparse_reversible(P)
        assert max(diag.residuals) <= 1e-10
        assert diag.distance <= diag.mh_distance + 1e-10
        assert np.array_equal(R.toarray()[recurrent:], P.toarray()[recurrent:])
        assert diag.transient.tolist() == list(range(recurrent, P.n))
        per_class = sum(c.distance**2 for c in diag.per_class)
        assert diag.distance**2 == pytest.approx(per_class, rel=1e-9, abs=1e-18)


def shuffled_reducible(sizes, transient, seed, perm):
    """Chain of closed classes of the given ``sizes`` followed by
    ``transient`` states that leak into them, the same chain with its states
    relabelled by ``perm`` (state ``i`` of the second is state ``perm[i]``
    of the first), and ``perm``."""
    rng = np.random.default_rng(seed)
    n = sum(sizes) + transient
    dense = np.zeros((n, n))
    offset = 0
    for k in sizes:
        idx = np.arange(k)
        block = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
        block[idx, (idx + 1) % k] += 0.1 + rng.random(k)  # a cycle keeps it closed
        dense[offset : offset + k, offset : offset + k] = block
        offset += k
    for row in range(offset, n):
        dense[row] = rng.random(n) * (rng.random(n) < 0.5)
        dense[row, rng.integers(offset)] += 0.1  # leak into a class
    blocks = row_normalize(dense)
    return blocks, SparseStochasticMatrix.from_dense(blocks.toarray()[np.ix_(perm, perm)]), perm


@st.composite
def shuffled_reducible_chains(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4), label="sizes")
    transient = draw(st.integers(1, 3), label="transient")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    perm = draw(st.permutations(range(sum(sizes) + transient)), label="perm")
    return shuffled_reducible(sizes, transient, seed, np.array(perm))


class TestShuffledReducibleChains:
    # relabelling puts transient states between the classes and makes the
    # order of SciPy's component labels differ from the order of first states
    @settings(max_examples=25, deadline=None)
    @given(shuffled_reducible_chains())
    def test_properties_hold(self, chains):
        blocks, P, perm = chains
        R, diag = nearest_sparse_reversible(P)
        assert max(diag.residuals) <= 1e-10
        classes = ergodic_decomposition(P, stationary_mixture(P)).classes
        reported = [c.indices for c in diag.per_class]
        assert [c.tolist() for c in reported] == [c.tolist() for c in classes]
        assert [c[0] for c in reported] == sorted(c[0] for c in reported)
        assert all(np.all(np.diff(c) > 0) for c in reported)
        transient = diag.transient
        assert np.array_equal(R.toarray()[transient], P.toarray()[transient])
        assert diag.distance <= diag.mh_distance + 1e-12
        again, _ = nearest_sparse_reversible(R)
        assert np.abs(again.toarray() - R.toarray()).max() <= 1e-12
        unshuffled, unshuffled_diag = nearest_sparse_reversible(blocks)
        assert np.abs(R.toarray() - unshuffled.toarray()[np.ix_(perm, perm)]).max() <= 1e-9
        assert sorted(np.argsort(perm)[unshuffled_diag.transient]) == transient.tolist()


def composed(P, options):
    """The pipeline as the public calls compose it, class by class: the
    dense result, its distance to ``P`` and the baseline distance."""
    pi = options.pi or stationary_mixture(P)
    classes = ergodic_decomposition(P, pi).classes
    if not options.recurse_ergodic:
        classes = [np.sort(np.concatenate(classes))]
    R = P.toarray()
    mh = []
    for members in classes:
        block = P.submatrix(members)
        pi_block = pi.restrict(members)
        if options.pattern is None:
            pattern = symmetrized_pattern(block)
        else:
            pattern = SparsityPattern(options.pattern.csr[members][:, members])
        qp = build_reduced_qp(block, pi_block, pattern)
        result = solve_qp(qp, options.solver)
        R[np.ix_(members, members)] = unscale_solution(result.y, qp.maps, qp.pi_hat).toarray()
        mh.append(mh_baseline_distance(block, pi_block))
    return R, np.linalg.norm(R - P.toarray()), np.sqrt(np.sum(np.square(mh)))


def equivalence_cases():
    """Reducible chains with transient states, each with a pattern that
    covers its support and one that does not, and a second stationary
    vector (the classes of the mixture reweighted at random)."""
    chains = [two_blocks_with_transients(seed=s) for s in range(3)]
    chains += [TestRandomReducibleChains.random_reducible(s)[0] for s in range(6)]
    for k, P in enumerate(chains):
        rng = np.random.default_rng(k)
        n = P.n
        extra = np.triu(rng.random((n, n)) < 0.3, k=1)
        extra = (extra | extra.T | np.eye(n, dtype=bool)).astype(float)
        covering = SparsityPattern(symmetrized_pattern(P).csr + sp.csr_matrix(extra))
        mixture = stationary_mixture(P)
        pi = mixture.values.copy()
        for members in ergodic_decomposition(P, mixture).classes:
            pi[members] *= rng.random() ** 4 / pi[members].sum()
        yield k, P, covering, SparsityPattern(extra), ProbabilityVector(pi / pi.sum())


@pytest.mark.parametrize("recurse", [True, False])
@pytest.mark.parametrize("override", [None, "pi", "covering", "partial"])
def test_pipeline_matches_public_composition(recurse, override):
    for k, P, covering, partial, reweighted in equivalence_cases():
        options = PipelineOptions(
            pi=reweighted if override == "pi" else None,
            pattern={"covering": covering, "partial": partial}.get(override),
            recurse_ergodic=recurse,
        )
        R, diag = nearest_sparse_reversible(P, options)
        R_ref, distance, mh = composed(P, options)
        assert np.abs(R.toarray() - R_ref).max() <= 1e-14, k
        assert diag.distance == pytest.approx(distance, rel=1e-12, abs=1e-300), k
        assert diag.mh_distance == pytest.approx(mh, rel=1e-12, abs=1e-300), k
        assert diag.delta_nnz == np.count_nonzero(np.abs(R_ref - P.toarray()) > 1e-15), k


@pytest.mark.parametrize(
    "dense, error",
    [
        (np.triu(np.ones((10, 10))), PatternNotSymmetric),
        (np.ones((10, 10)) - np.eye(10), MissingDiagonal),
    ],
)
def test_pattern_override_errors_reach_the_caller(dense, error):
    P = two_blocks_with_transients()
    with pytest.raises(ClassSolveFailed) as err:
        nearest_sparse_reversible(P, PipelineOptions(pattern=SparsityPattern(dense)))
    assert [type(exc) for _, exc in err.value.failures] == [error, error]


@pytest.mark.parametrize("size", [3, 7])
def test_pattern_of_wrong_size_is_rejected_before_any_solve(chain_factory, monkeypatch, size):
    # a larger pattern would be cut to its leading block, a smaller one would
    # index past its end inside a class solve
    solved = []
    monkeypatch.setattr("revmarkov.pipeline.solve_qp", lambda *args: solved.append(args))
    options = PipelineOptions(pattern=SparsityPattern(np.ones((size, size))))
    with pytest.raises(DimensionMismatch, match="dimensions of P and pattern disagree"):
        nearest_sparse_reversible(chain_factory(5, 0), options)
    assert not solved


@pytest.mark.parametrize("size", [3, 7])
def test_pi_of_wrong_size_is_rejected(chain_factory, size):
    options = PipelineOptions(pi=ProbabilityVector(np.ones(size) / size))
    with pytest.raises(DimensionMismatch, match="dimensions of P and pi disagree"):
        nearest_sparse_reversible(chain_factory(5, 0), options)


def test_one_chain_object_per_call(monkeypatch):
    # the result is the only SparseStochasticMatrix a call builds: no class
    # block, unscaled block or baseline chain on the way
    built = []
    init = SparseStochasticMatrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    P = two_blocks_with_transients()
    monkeypatch.setattr(SparseStochasticMatrix, "__init__", counting_init)
    R, diag = nearest_sparse_reversible(P)
    assert diag.num_classes == 2 and diag.transient.size == 3
    assert len(built) == 1


#: A pipeline run may hold at most this many traced bytes per stored entry
#: of ``P`` at once; an O(n^2) temporary exceeds it by orders of magnitude.
PEAK_BYTES_PER_ENTRY = 512


@pytest.mark.parametrize(
    "make",
    [
        lambda: ring_chain(1.0 + 0.1 * np.random.default_rng(0).random(300_000)),
        lambda: gen_random_chain(BenchmarkConfig(n_min=6000, n_max=6000, seed=1), 0),
    ],
    ids=["benign-ring-1e5", "expander-5930"],
)
def test_scale_ladder(make):
    assert_rung(make())


def assert_rung(P):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        R, diag = nearest_sparse_reversible(P)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(diag.residuals) <= 1e-10
    assert diag.distance <= diag.mh_distance
    assert peak < PEAK_BYTES_PER_ENTRY * P.nnz, f"{peak / P.nnz:.0f} B per entry of P"


def test_metastable_ring_rung():
    # 1e5 states with pi spanning down to 4.9e-143: sparse LU is rejected,
    # and sparse GTH elimination must give every entry to relative accuracy
    P = ring_chain(np.random.default_rng(0).random(300_000) + 0.1)
    pi = stationary_mixture(P).values
    assert P.n == 100_000 and pi.min() > 0.0
    off_diagonal = P.csr - sp.diags(P.csr.diagonal())
    outflow = pi * np.asarray(off_diagonal.sum(axis=1)).ravel()
    assert np.max(np.abs(pi @ off_diagonal - outflow) / outflow) <= 1e-13
    assert_rung(P)


def test_subnormal_mass_is_not_accepted_as_optimal():
    # pi_1 is subnormal, so the Hessian ratio pi_0 / pi_1 overflows; accepting
    # the class returned R = I at distance 1.414 against MH 2.7e-14, with
    # residuals (0, 0, 0).  The class is refused as its program is built,
    # before any Newton step, and without a NumPy warning.
    P = SparseStochasticMatrix.from_dense([[1.0, 6.3e-311], [1 - 4.5e-5, 4.5e-5]])
    with pytest.raises(ClassSolveFailed) as err:
        nearest_sparse_reversible(P)
    ((members, exc),) = err.value.failures
    assert members.tolist() == [0, 1]
    assert type(exc) is RevMarkovError
    assert traceback.extract_tb(exc.__traceback__)[-1].name == "_assemble"
    assert str(exc) == (
        "the reduced QP left the double range: pi spans 6.3e-311 to 1, "
        "so a Hessian ratio pi_i / pi_j overflows"
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(815)  # refused; the line search's squares overflowed
@example(3398)  # solved; the Jacobi preconditioner 1 / diag overflowed
def test_edge_of_range_chains_are_solved_or_refused(seed):
    # no silent wrong answer and no bare error: a chain that underflows to a
    # zero row or leaves the double range inside the call raises a typed
    # error, and any result keeps the pipeline's contract.  NumPy warnings
    # are recorded and asserted absent, whichever step of the call leaks one
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            _, diag = nearest_sparse_reversible(edge_of_range_chain(seed))
        except RevMarkovError:
            diag = None
    assert not [w for w in leaked if issubclass(w.category, RuntimeWarning)]
    if diag is not None:
        assert max(diag.residuals) <= 1e-10
        assert diag.distance <= diag.mh_distance + 1e-10


def test_faults_outside_the_error_hierarchy_propagate(monkeypatch):
    # only a RevMarkovError of a class solve is aggregated into
    # ClassSolveFailed; any other exception, such as a programming error in
    # the solver, reaches the caller with its own type
    def faulty_solve(qp, opts=None):
        raise TypeError("fault inside the class solve")

    monkeypatch.setattr("revmarkov.pipeline.solve_qp", faulty_solve)
    with pytest.raises(TypeError, match="fault inside the class solve"):
        nearest_sparse_reversible(wide_span_chain(5))


def test_large_renormalization_is_refused(caplog):
    # the unscaled rows of this class miss 1 by 0.5; renormalizing them gave
    # R_03 = 1 and R_30 = 1/3 although pi_0 = pi_3, a relative detailed-balance
    # violation of 0.67 that verify read as 1.7e-16
    P = SparseStochasticMatrix.from_dense(
        [
            [0.0, 0.0, 0.0, 1.0],
            [3.8356689640445083e-56, 0.0, 0.99999999999999989, 1.3586817310715059e-86],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    with pytest.raises(ClassSolveFailed) as err:
        nearest_sparse_reversible(P)
    ((members, exc),) = err.value.failures
    assert members.tolist() == [0, 1, 2, 3]
    assert type(exc) is RevMarkovError
    assert str(exc).startswith("unscaled rows miss a sum of 1 by 5.000e-01 (> 1e-10)")
    assert "renormalizing" not in caplog.text


def test_scipy_glue_per_call(monkeypatch, caplog):
    # a single-class call whose class the sweep solves builds at most three
    # SciPy compressed matrices: A_eq, the normal matrix and R, which the
    # chain's constructor copies once; no product goes through ``@``
    counts = {"built": 0, "products": 0}
    compressed = sp._compressed._cs_matrix
    init, product = compressed.__init__, compressed._matmul_vector

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_product(self, other):
        counts["products"] += 1
        return product(self, other)

    P = gen_random_chain(BenchmarkConfig(n_min=100, n_max=100, seed=1), 0)
    monkeypatch.setattr(compressed, "__init__", counting_init)
    monkeypatch.setattr(compressed, "_matmul_vector", counting_product)
    caplog.set_level(logging.DEBUG, logger="revmarkov.chain_analysis")
    R, diag = nearest_sparse_reversible(P)
    assert diag.num_classes == 1 and not diag.transient.size
    assert "by the jump-chain sweep" in caplog.text
    assert counts["built"] <= 4 and counts["products"] == 0


def test_wide_span_chains_match_oracle():
    # ill-conditioned first Newton steps with long Armijo backtracking; each
    # class must still end on the oracle's optimum at machine precision.
    # Seed 196's last steps gain less than the rounding of the dual value.
    compared = 0
    for seed in range(100, 200):
        P = wide_span_chain(seed)
        R, diag = nearest_sparse_reversible(P)
        assert max(diag.residuals) <= 1e-10
        pi = stationary_mixture(P)
        for members in ergodic_decomposition(P, pi).classes:
            block = P.submatrix(members)
            qp = build_reduced_qp(block, pi.restrict(members), symmetrized_pattern(block))
            if qp.y_m > 10:
                continue
            rows, cols = qp.maps.upper_rows, qp.maps.upper_cols
            y = R.toarray()[members[rows], members[cols]] * qp.pi_hat[rows] / qp.pi_hat[cols]
            assert np.abs(y - oracle_solve(qp)).max() <= 1e-9
            compared += 1
    assert compared >= 20


class TestVerify:
    def test_exactly_reversible(self):
        P = row_normalize(np.full((3, 3), 1.0 / 3.0))
        triple = verify(P, ProbabilityVector(np.full(3, 1.0 / 3.0)))
        assert max(triple) <= 1e-16

    def test_mh_output_verifies(self, chain_factory):
        for seed in range(5):
            P = chain_factory(8, 50 + seed)
            pi = stationary_mixture(P)
            T = reversibilize(P, pi)
            triple = verify(T, pi)
            assert max(triple) <= 1e-13


class TestDiagnostics:
    def test_json_roundtrip(self, chain_factory):
        P = chain_factory(6, 41)
        _, diag = nearest_sparse_reversible(P)
        payload = json.loads(json.dumps(diag.to_dict()))
        assert payload["schema"] == "revmarkov-diagnostics/1"
        assert payload["num_classes"] == 1
        assert payload["residuals"]["stochasticity"] <= 1e-12
        assert len(payload["per_class"]) == 1
        assert payload["per_class"][0]["y_m"] > 0
        assert payload["timings"]["total_seconds"] > 0

    def test_class_records_count_the_linear_solves(self):
        # Newton steps, their CG iterations and factor hand-overs, as
        # solve_qp reports them for the class program
        P = wide_span_chain(111)
        _, diag = nearest_sparse_reversible(P)
        result = solve_qp(build_reduced_qp(P, stationary_mixture(P), symmetrized_pattern(P)))
        record = json.loads(json.dumps(diag.to_dict()))["per_class"][0]
        counts = (result.iterations, result.cg_iterations, result.factor_steps)
        assert (record["iterations"], record["cg_iterations"], record["factor_steps"]) == counts
        assert result.cg_iterations >= result.iterations

    def test_inline_json(self, chain_factory):
        P = chain_factory(5, 43)
        _, diag = nearest_sparse_reversible(P)
        payload = json.loads(json.dumps(diag.to_dict()))
        assert payload["distance"] == pytest.approx(diag.distance)


HOT_LOOP_CHAINS = {
    "expander 100": lambda: gen_random_chain(BenchmarkConfig(n_min=100, n_max=100, seed=1), 0),
    "expander 800": lambda: gen_random_chain(BenchmarkConfig(n_min=800, n_max=800, seed=1), 0),
    "ring 1000": lambda: ring_chain(1.0 + 0.1 * np.random.default_rng(0).random(3000)),
    "wide span 443": lambda: wide_span_chain(443),
}


@pytest.mark.parametrize("case", HOT_LOOP_CHAINS)
def test_hot_loops_match_their_reference_loops(case, monkeypatch):
    # every class the pipeline sweeps and every Newton system it hands to
    # conjugate gradients gives the plain loops' results bit for bit
    pairs = {"sweep": [], "cg": []}

    def paired(name, loop, reference):
        def spy(*args):
            got = loop(*args)
            pairs[name].append((got, reference(*args)))
            return got

        return spy

    monkeypatch.setattr(
        chain_analysis,
        "_jump_chain_sweep",
        paired("sweep", chain_analysis._jump_chain_sweep, reference_jump_chain_sweep),
    )
    monkeypatch.setattr(
        qp_solve, "_newton_pcg", paired("cg", qp_solve._newton_pcg, reference_newton_pcg)
    )
    nearest_sparse_reversible(HOT_LOOP_CHAINS[case]())
    assert pairs["sweep"] and pairs["cg"]
    for got, expected in pairs["sweep"] + pairs["cg"]:
        assert same_result(got, expected)
    if case == "ring 1000":  # the sweep declines at its second check
        assert [(pi, steps) for (pi, steps, _), _ in pairs["sweep"]] == [(None, 20)]
    if case == "wide span 443":  # conjugate gradients stall on a singular system
        assert any(x is None and count > 0 for (x, count, *_), _ in pairs["cg"])
