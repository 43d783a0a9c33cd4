import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import pattern_positions, same_csr
from revmarkov import (
    DimensionMismatch,
    ProbabilityVector,
    SparseStochasticMatrix,
    SparsityPattern,
    ZeroRow,
    detailed_balance_residual,
    frobenius_distance,
    row_normalize,
    sparse_core,
    stationarity_residual,
    stochasticity_residual,
    symmetrized_pattern,
)


def dense_stationary(P):
    """Independent oracle: stationary vector by dense elimination."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol


class TestRowNormalize:
    def test_identity_is_fixed(self):
        out = row_normalize(np.eye(3))
        assert np.array_equal(out.toarray(), np.eye(3))

    def test_simple_counts(self):
        out = row_normalize(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert np.allclose(out.toarray(), [[0.5, 0.5], [0.0, 1.0]])

    def test_butane_counts_give_90_nonzeros(self, butane):
        P = row_normalize(butane.counts)
        assert P.n == 30
        assert P.nnz == 90
        assert stochasticity_residual(P) <= 1e-12

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRow) as err:
            row_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert err.value.row == 1

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            row_normalize(np.array([[1.0, -0.5], [0.0, 1.0]]))

    def test_subnormal_row_sum_is_divided(self):
        # 1 / 1.5e-323 overflows, so that row is divided by its sum; every
        # other row keeps the bits of its entries times the reciprocal
        counts = np.array([[5e-324, 1e-323, 0.0], [0.1, 0.2, 0.4], [0.0, 0.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = row_normalize(counts)
        middle = np.array([0.1, 0.2, 0.4])
        expected = np.r_[np.array([1.0, 2.0]) / 3.0, middle * (1.0 / (0.1 + 0.2 + 0.4)), 1.0]
        assert P.csr.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_idempotent_on_stochastic(self, chain_factory, seed):
        P = chain_factory(7, seed)
        again = row_normalize(P)
        assert np.abs(again.toarray() - P.toarray()).max() <= 1e-15

    def test_pattern_preserved(self, chain_factory):
        C = chain_factory(6, 9).toarray() * 3.7
        out = row_normalize(C)
        assert np.array_equal(out.toarray() > 0, C > 0)


class TestDetailedBalanceResidual:
    def test_symmetric_uniform_is_zero(self):
        P = row_normalize(np.full((4, 4), 0.25))
        assert detailed_balance_residual(P, ProbabilityVector(np.full(4, 0.25))) == 0.0

    def test_ring4_value(self, ring4):
        # oracle: stationary by dense elimination, residual by dense max
        pi = dense_stationary(ring4.T.toarray())
        assert np.allclose(pi, ring4.pi.values, atol=1e-12)
        dense = ring4.T.toarray()
        expected = np.abs(pi[:, None] * dense - (pi[:, None] * dense).T).max()
        got = detailed_balance_residual(ring4.T, ring4.pi)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.2, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            detailed_balance_residual(np.eye(3), ProbabilityVector(np.full(2, 0.5)))
        with pytest.raises(DimensionMismatch):
            detailed_balance_residual(np.ones((2, 3)) / 3.0, ProbabilityVector(np.full(2, 0.5)))

    def test_zero_implies_stationarity(self, reversible_factory):
        # flux symmetry plus unit row sums forces pi P = pi (summing the
        # balance equations over the second index)
        for seed in range(5):
            P, pi = reversible_factory(8, seed)
            assert detailed_balance_residual(P, pi) <= 5e-16
            assert stationarity_residual(P, pi) <= 5e-15


class TestFrobeniusDistance:
    def test_equal_matrices(self, chain_factory):
        P = chain_factory(5, 3)
        assert frobenius_distance(P, P) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frobenius_distance(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        A, B, C = (sp.random(6, 6, density=0.4, random_state=rng) for _ in range(3))
        assert frobenius_distance(A, C) <= (
            frobenius_distance(A, B) + frobenius_distance(B, C) + 1e-12
        )


class TestSymmetrizedPattern:
    def test_identity(self):
        pattern = symmetrized_pattern(np.eye(4))
        assert pattern.size == 4

    def test_ring4_positions(self, ring4):
        pattern = symmetrized_pattern(ring4.T)
        expected = {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        expected |= {(i, i) for i in range(4)}
        assert pattern_positions(pattern) == expected

    def test_butane_pattern_size(self, butane):
        assert symmetrized_pattern(butane.P).size == 90

    def test_fixed_point(self, chain_factory):
        P = chain_factory(8, 5)
        pattern = symmetrized_pattern(P)
        again = symmetrized_pattern(pattern.csr)
        assert same_csr(pattern.csr, again.csr)


class TestStochasticityResidual:
    def test_exact(self, chain_factory):
        assert stochasticity_residual(chain_factory(6, 0)) <= 1e-15

    def test_all_zero_matrix(self):
        assert stochasticity_residual(sp.csr_matrix((3, 3))) == 1.0


class TestSparseStochasticMatrix:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            SparseStochasticMatrix.from_dense([[0.5, 0.4], [0.0, 1.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SparseStochasticMatrix.from_dense([[1.5, -0.5], [0.0, 1.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            SparseStochasticMatrix.from_dense(np.ones((2, 3)) / 3.0)

    def test_canonical_no_explicit_zeros_and_sorted(self):
        coo = sp.coo_matrix(
            (
                [0.5, 0.25, 0.25, 0.0, 1.0],
                ([0, 0, 0, 1, 1], [0, 1, 1, 0, 1]),
            ),
            shape=(2, 2),
        )
        m = SparseStochasticMatrix(coo)
        assert m.nnz == 3  # zero dropped, duplicates summed
        assert np.allclose(m.toarray(), [[0.5, 0.5], [0.0, 1.0]])
        assert np.all(np.diff(m.csr.indices[m.csr.indptr[0] : m.csr.indptr[1]]) > 0)

    def test_immutable(self, chain_factory):
        P = chain_factory(4, 1)
        with pytest.raises(ValueError):
            P.csr.data[0] = 7.0

    def test_equality_and_hash(self, chain_factory):
        # the same entries in shuffled order give identical canonical buffers
        P = chain_factory(5, 7)
        coo = P.csr.tocoo()
        order = np.random.default_rng(0).permutation(coo.nnz)
        Q = SparseStochasticMatrix.from_coo(5, coo.row[order], coo.col[order], coo.data[order])
        assert same_csr(P.csr, Q.csr)

    def test_submatrix_takes_states_in_any_order(self, chain_factory):
        # a permutation of every state is a relabelling, not the matrix itself
        P = chain_factory(9, 4)
        rng = np.random.default_rng(1)
        dense = P.toarray()
        perm = rng.permutation(P.n)
        np.testing.assert_array_equal(P.submatrix(perm).toarray(), dense[perm][:, perm])
        subset = rng.permutation(P.n)[:5]
        block = P.submatrix(subset, stochastic=False)
        np.testing.assert_array_equal(block.toarray(), dense[subset][:, subset])
        assert not block.stochastic

    def test_adopted_arrays_are_checked_and_kept(self, chain_factory):
        # _adopt stores the arrays themselves, after the constructor's checks
        P = chain_factory(6, 2)
        csr = P.csr.copy()
        R = SparseStochasticMatrix._adopt(csr)
        assert R.csr is csr and same_csr(R.csr, P.csr)
        assert not csr.data.flags.writeable and R.stochastic
        bad_rows = P.csr.copy()
        bad_rows.data[0] += 1e-9
        zero = P.csr.copy()
        zero.data[0] = 0.0
        with pytest.raises(ValueError, match="row sums deviate"):
            SparseStochasticMatrix._adopt(bad_rows)
        with pytest.raises(ValueError, match="canonical"):
            SparseStochasticMatrix._adopt(zero)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SparseStochasticMatrix([[np.nan, 1.0], [0.0, 1.0]]), ValueError, "finite"),
        (lambda: ProbabilityVector([]), ValueError, "must not be empty"),
        (lambda: ProbabilityVector([1.0, 0.0]).restrict([1]), ValueError, "no probability mass"),
        (lambda: SparsityPattern(np.ones((2, 3))), DimensionMismatch, "square"),
        (lambda: symmetrized_pattern(np.ones((2, 3))), DimensionMismatch, "square"),
        (lambda: stochasticity_residual(np.ones((2, 3))), DimensionMismatch, "square"),
        (lambda: stationarity_residual(np.eye(2), np.ones(3) / 3), DimensionMismatch, "disagree"),
        (lambda: stationarity_residual(np.ones((2, 1)), np.full(2, 0.5)), DimensionMismatch, "disagree"),
    ],
    ids=[
        "non-finite entry",
        "empty vector",
        "restriction without mass",
        "rectangular pattern",
        "rectangular pattern input",
        "rectangular stochasticity input",
        "pi of wrong size",
        "rectangular stationarity input",
    ],
)
def test_input_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestProbabilityVector:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.4])

    def test_nonnegative_enforced(self):
        with pytest.raises(ValueError):
            ProbabilityVector([1.5, -0.5])

    def test_finite_enforced(self):
        # NaN passes both the sign and the sum comparison
        with pytest.raises(ValueError, match="finite"):
            ProbabilityVector([np.nan, 1 / 3, 1 / 3, 1 / 3])

    def test_support_excludes_zeros(self):
        pi = ProbabilityVector([0.5, 0.0, 0.5])
        assert pi.support.tolist() == [0, 2]

    def test_restrict_renormalizes(self):
        pi = ProbabilityVector([0.2, 0.3, 0.5])
        sub = pi.restrict([1, 2])
        assert np.allclose(sub.values, [0.375, 0.625])

    def test_immutable(self):
        pi = ProbabilityVector(np.full(3, 1.0 / 3.0))
        with pytest.raises(ValueError):
            pi.values[0] = 0.9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_row_normalize_rows_sum_to_one(n, seed):
    rng = np.random.default_rng(seed)
    counts = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    counts[np.arange(n), rng.integers(0, n, size=n)] += 0.5  # no zero rows
    out = row_normalize(counts)
    assert stochasticity_residual(out) <= 1e-12


def scipy_canonical(matrix) -> sp.csr_matrix:
    """Canonical CSR form by SciPy's own sequence on a float copy."""
    csr = sp.csr_matrix(matrix, dtype=float, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


@st.composite
def sparse_inputs(draw):
    """A square COO or CSR matrix whose entries come in any order, with
    duplicates, explicit zeros and empty rows, or a canonical CSR matrix
    with int32 or int64 indices."""
    n = draw(st.integers(min_value=1, max_value=6))
    value = st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(1e-300, 10.0)
    index = st.integers(min_value=0, max_value=n - 1)
    entries = draw(st.lists(st.tuples(index, index, value), max_size=3 * n * n))
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=float)
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    form = draw(st.sampled_from(["coo", "csr", "canonical", "canonical int64"]))
    if form == "coo":
        return coo
    if form.startswith("canonical"):
        csr = scipy_canonical(coo)
        if form.endswith("int64"):
            csr.indices, csr.indptr = csr.indices.astype(np.int64), csr.indptr.astype(np.int64)
        return csr
    order = np.argsort(rows, kind="stable")  # rows grouped, columns as drawn
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))


def buffers(csr):
    return [(buf.dtype, buf.tobytes()) for buf in (csr.indptr, csr.indices, csr.data)]


@settings(max_examples=300, deadline=None)
@given(sparse_inputs())
def test_canonical_construction_matches_scipy(matrix):
    expected = scipy_canonical(matrix)
    given_buffers = buffers(matrix.tocsr())
    P = SparseStochasticMatrix(matrix, stochastic=False)
    assert buffers(P.csr) == buffers(expected)
    assert not any(buf.flags.writeable for buf in (P.csr.indptr, P.csr.indices, P.csr.data))

    sums = np.asarray(matrix.tocsr().sum(axis=1)).ravel()
    assert stochasticity_residual(matrix).hex() == float(np.abs(sums - 1.0).max()).hex()

    # the reference row_normalize: SciPy's canonical form, its row sums, and
    # each entry times its row's reciprocal
    sums = np.asarray(expected.sum(axis=1)).ravel()
    if sums.min() > 0.0:
        scaled = expected.data * np.repeat(1.0 / sums, np.diff(expected.indptr))
        assert buffers(row_normalize(matrix).csr) == buffers(
            scipy_canonical(sp.csr_matrix((scaled, expected.indices, expected.indptr)))
        )
    else:
        with pytest.raises(ZeroRow):
            row_normalize(matrix)
    # the input is neither changed nor frozen
    assert buffers(matrix.tocsr()) == given_buffers
    if matrix.format == "csr":
        assert matrix.data.flags.writeable


def _product_case(index_dtype):
    """A 40-by-30 CSR matrix with an empty row and an empty column, its
    indices in ``index_dtype``, and a vector to multiply."""
    rng = np.random.default_rng(7)
    dense = np.where(rng.random((40, 30)) < 0.2, rng.normal(size=(40, 30)), 0.0)
    dense[11] = 0.0
    dense[:, 7] = 0.0
    matrix = sp.csr_matrix(dense)
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    assert matrix.indices.dtype == matrix.indptr.dtype == index_dtype
    assert matrix.indptr[11] == matrix.indptr[12] and 7 not in matrix.indices
    return matrix, rng.normal(size=30)


# SciPy's kernels are the one path of every product, and the test ids name them
kernel_cases = pytest.mark.parametrize(
    "index_dtype", [np.int32, np.int64], ids=["int32-scipy", "int64-scipy"]
)


@kernel_cases
def test_csr_apply_gives_the_bits_of_the_product(index_dtype):
    matrix, x = _product_case(index_dtype)
    out = np.full(40, np.nan)  # whatever ``out`` held is overwritten
    sparse_core._csr_apply(matrix, x, out)
    assert out.tobytes() == (matrix @ x).tobytes()


@kernel_cases
@pytest.mark.parametrize("form", ["matrix", "arrays"])
def test_transposed_kernels_give_the_bits_of_scipy(index_dtype, form):
    # the CSR copy of A^T, from a SciPy matrix or its bare arrays, and A^T x
    matrix, _ = _product_case(index_dtype)
    given = matrix
    if form == "arrays":
        given = sparse_core._CSRArrays(matrix.data, matrix.indices, matrix.indptr, matrix.shape)
    x = np.random.default_rng(8).normal(size=40)
    out = np.full(30, np.nan)
    flipped, expected = sparse_core._transpose(given), matrix.T.tocsr()
    assert flipped.shape == expected.shape == (30, 40)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(flipped, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the product of the copy is that of the transpose, bit for bit
    sparse_core._csr_apply(flipped, x, out)
    assert out.tobytes() == (matrix.T @ x).tobytes()


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_flux_residuals_give_the_bits_of_dense_arithmetic(symmetric, index_dtype):
    # detailed balance from the flux matrix and its kernel transpose, and
    # stationarity from the transposed kernel, against the same products
    # formed densely and by ``@``; explicit zeros and one-way entries included
    rng = np.random.default_rng(9)
    for _ in range(20):
        dense = np.where(rng.random((12, 12)) < 0.35, rng.random((12, 12)), 0.0)
        if symmetric:
            dense = np.where((dense + dense.T) > 0.0, rng.random((12, 12)), 0.0)
            dense = np.where(dense.T > 0.0, dense, 0.0)
        csr = sp.csr_matrix(dense)
        csr.data[::5] = 0.0  # stored zeros keep canonical form
        csr.indices = csr.indices.astype(index_dtype)
        csr.indptr = csr.indptr.astype(index_dtype)
        dense = csr.toarray()
        pi = rng.random(12)
        flux = pi[:, None] * dense
        assert detailed_balance_residual(csr, pi) == np.abs(flux - flux.T).max()
        assert stationarity_residual(csr, pi) == np.abs(pi @ csr - pi).max()
        # the same entries halved into duplicates, each row in descending
        # column order: detailed balance canonicalizes them first
        coo = csr.tocoo()
        rows, cols = np.r_[coo.row, coo.row], np.r_[coo.col, coo.col]
        order = np.lexsort((-cols, rows))
        unsorted = sp.csr_matrix(
            (np.r_[coo.data, coo.data][order] / 2, cols[order], np.searchsorted(rows[order], np.arange(13))),
            shape=(12, 12),
        )
        assert not unsorted.has_canonical_format
        assert detailed_balance_residual(unsorted, pi) == np.abs(flux - flux.T).max()
        assert stationarity_residual(unsorted, pi) == np.abs(pi @ unsorted - pi).max()


@pytest.mark.parametrize("size", [0, 1, 7, 2_000])
def test_sorted_slots_are_those_of_unique(size):
    # keys with many repeats, as the pair tables' transposed entries give
    keys = np.random.default_rng(size).integers(0, size // 3 + 1, size, dtype=np.int64)
    want_keys, want_slot = np.unique(keys, return_inverse=True)
    got_keys, got_slot = sparse_core._sorted_slots(keys)
    for got, want in ((got_keys, want_keys), (got_slot, want_slot)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("maxval", [0, 1, 2**31 - 1, 2**31, 2**40])
def test_index_dtype_is_scipys(maxval):
    assert sparse_core._index_dtype(maxval) is sp.get_index_dtype(maxval=maxval)
