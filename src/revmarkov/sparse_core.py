"""Sparse stochastic matrices, probability vectors, sparsity patterns, and the
residual functionals the rest of the package asserts against.

All types are immutable after construction (their numpy buffers are marked
read-only) and all operations are pure functions, so values can be shared
freely across threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .exceptions import DimensionMismatch, MissingDiagonal, PatternNotSymmetric, ZeroRow

# SciPy's private kernels behind ``@`` and ``.T.tocsr()``
from scipy.sparse._sparsetools import csc_matvec as _csc_matvec
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
from scipy.sparse._sparsetools import csr_tocsc as _csr_tocsc

__all__ = [
    "SparseStochasticMatrix",
    "ProbabilityVector",
    "SparsityPattern",
    "row_normalize",
    "detailed_balance_residual",
    "frobenius_distance",
    "symmetrized_pattern",
    "stochasticity_residual",
    "stationarity_residual",
]

#: Row sums may deviate from 1 by at most this much for a matrix flagged stochastic.
STOCHASTIC_TOL = 1e-12


def _is_canonical(matrix) -> bool:
    """Whether ``matrix`` is a float CSR matrix in canonical form: sorted
    column indices and no duplicates, as SciPy flags them, and no stored
    zero."""
    return (
        sp.issparse(matrix)
        and matrix.format == "csr"
        and matrix.dtype == float
        and matrix.has_canonical_format
        and matrix.data.all()
    )


def _canonical_csr(matrix) -> sp.csr_matrix:
    """Copy ``matrix`` into canonical float CSR form: summed duplicates, no
    stored zeros, sorted column indices."""
    if _is_canonical(matrix):
        return sp.csr_matrix(
            (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape, copy=True
        )
    csr = sp.csr_matrix(matrix, dtype=float, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def _row_sums(csr: sp.csr_matrix) -> np.ndarray:
    """Row sums of ``csr``, bit for bit those of ``csr.sum(axis=1)``: the
    same ``np.add.reduceat`` over the rows that store an entry."""
    sums = np.zeros(csr.shape[0])
    rows = np.flatnonzero(np.diff(csr.indptr))
    sums[rows] = np.add.reduceat(csr.data, csr.indptr[rows])
    return sums


def _symmetric_lu(matrix: sp.csc_matrix):
    """Sparse LU in SuperLU's symmetric mode: minimum-degree order on the
    structure of ``A + A^T`` and diagonal pivots only.  Every caller factors
    a matrix that needs no off-diagonal pivots: a nonsingular M-matrix or a
    symmetric positive definite normal matrix."""
    return splu(
        matrix,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


class _CSRArrays(NamedTuple):
    """The arrays of a CSR matrix under SciPy's attribute names, so that the
    kernels below take them or a ``csr_matrix`` alike, without building a
    SciPy matrix."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _row_major(values, rows, cols, n: int) -> _CSRArrays:
    """CSR arrays of the ``n x n`` matrix of the entries given in row-major
    order, with the index type SciPy picks for them, so that it neither
    checks nor converts the arrays."""
    index = sp.get_index_dtype(maxval=max(n, values.size))
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(index)
    return _CSRArrays(values, cols.astype(index), indptr, (n, n))


def _scipy(matrix) -> sp.csr_matrix:
    """``matrix`` as a SciPy CSR matrix on the same arrays, for the callers
    that need SciPy's matrix arithmetic or a public result."""
    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def _csr_apply(matrix, x: np.ndarray, out: np.ndarray):
    """Write ``matrix @ x`` into ``out``, bit for bit the product ``@``
    gives.

    Calls the kernel that ``@`` itself runs, without ``@``'s dispatch and
    result allocation, which cost more than the kernel on the small
    products of the pipeline.  ``matrix`` is a ``csr_matrix`` or
    :class:`_CSRArrays`; ``x`` and ``out`` are float64 like its data.
    """
    out.fill(0.0)  # the kernel adds the product to ``out``
    _csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)


def _csr_apply_transposed(matrix, x: np.ndarray, out: np.ndarray):
    """Write ``matrix.T @ x`` into ``out``, bit for bit the product ``@``
    gives, as :func:`_csr_apply` does: the CSR arrays of ``matrix`` are the
    CSC arrays of its transpose, whose kernel ``@`` runs."""
    out.fill(0.0)
    rows, cols = matrix.shape
    _csc_matvec(cols, rows, matrix.indptr, matrix.indices, matrix.data, x, out)


def _transpose(matrix) -> _CSRArrays:
    """The CSR arrays of ``matrix.T``, bit for bit and type for type those
    of ``matrix.T.tocsr()``, from the kernel that conversion runs: each
    row's entries come out in ascending column order."""
    rows, cols = matrix.shape
    nnz = int(matrix.indptr[-1])
    index = sp.get_index_dtype(maxval=max(nnz, rows, cols))
    indptr, indices = matrix.indptr.astype(index, copy=False), matrix.indices.astype(index, copy=False)
    out = _CSRArrays(
        np.empty(nnz, dtype=matrix.data.dtype),
        np.empty(nnz, dtype=index),
        np.empty(cols + 1, dtype=index),
        (cols, rows),
    )
    _csr_tocsc(rows, cols, indptr, indices, matrix.data, out.indptr, out.indices, out.data)
    return out


def _edge_rows(csr: sp.csr_matrix) -> np.ndarray:
    """Row index of every stored entry."""
    return np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))


def _row_edges(csr: sp.csr_matrix, rows: np.ndarray):
    """Storage positions of the entries of ``rows``, in order, and each
    one's position in ``rows``."""
    starts = csr.indptr[rows]
    counts = csr.indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), counts)
    return np.arange(owner.size) + np.repeat(starts - np.cumsum(counts) + counts, counts), owner


def _gather(csr: sp.csr_matrix, members: np.ndarray):
    """Entries of ``csr`` inside ``members x members`` (distinct states) as
    local ``(rows, cols, vals)``, found by index arithmetic on ``indptr``;
    in canonical row-major order when ``members`` is ascending."""
    edges, rows = _row_edges(csr, members)
    local = np.full(csr.shape[0], -1)
    local[members] = np.arange(members.size)
    cols = local[csr.indices[edges]]
    inside = cols >= 0
    return rows[inside], cols[inside], csr.data[edges[inside]]


def _upper_keys(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Key ``j * n + i`` of the upper-triangle position ``(i, j)``,
    ``i <= j``, of each position ``(rows, cols)`` or its transpose."""
    return np.maximum(rows, cols).astype(np.int64) * n + np.minimum(rows, cols)


def _pattern_positions(n: int, rows: np.ndarray, cols: np.ndarray):
    """Upper-triangle positions ``(i, j)``, ``i <= j``, of the pattern made
    of the distinct positions ``(rows, cols)``, ordered column-major then row
    (ascending key ``j * n + i``).

    Raises
    ------
    PatternNotSymmetric
        If some position's transpose is missing.
    MissingDiagonal
        If some diagonal position is missing.
    """
    keys, counts = np.unique(_upper_keys(n, rows, cols), return_counts=True)
    on_diagonal = keys % (n + 1) == 0
    if np.any(counts != 2 - on_diagonal):
        raise PatternNotSymmetric("reduction requires a symmetric pattern")
    if np.count_nonzero(on_diagonal) != n:
        raise MissingDiagonal("reduction requires every diagonal position")
    return keys % n, keys // n


def _carry(slot, rows, cols, vals, size: int):
    """``X_ij`` and ``X_ji`` at each of ``size`` upper positions from the
    entries of ``X`` on the positions ``slot``."""
    lower = rows > cols
    return (
        np.bincount(slot[~lower], weights=vals[~lower], minlength=size),
        np.bincount(slot[lower], weights=vals[lower], minlength=size),
    )


def _pair_table(n: int, rows, cols, vals):
    """The pair table ``(i, j, X_ij, X_ji)`` of the distinct entries of
    ``X``: its upper positions are those of the entries, their transposes
    and the full diagonal, in the order of :func:`_pattern_positions`, and
    ``X_ji`` is zero on the diagonal."""
    keys = np.r_[_upper_keys(n, rows, cols), np.arange(n, dtype=np.int64) * (n + 1)]
    keys, slot = np.unique(keys, return_inverse=True)
    return (keys % n, keys // n, *_carry(slot[: rows.size], rows, cols, vals, keys.size))


def _pair_values(n: int, i: np.ndarray, j: np.ndarray, rows, cols, vals):
    """``X_ij`` and ``X_ji`` at the given upper positions ``(i, j)``, from
    the distinct entries of ``X``, and the values of the entries that fall
    on none of them."""
    keys = _upper_keys(n, i, j)
    union, slot = np.unique(np.r_[keys, _upper_keys(n, rows, cols)], return_inverse=True)
    position = np.full(union.size, -1)
    position[slot[: keys.size]] = np.arange(keys.size)
    slot = position[slot[keys.size :]]
    inside = slot >= 0
    carried = _carry(slot[inside], rows[inside], cols[inside], vals[inside], keys.size)
    return (*carried, vals[~inside])


def _freeze(csr: sp.csr_matrix) -> sp.csr_matrix:
    for buf in (csr.data, csr.indices, csr.indptr):
        buf.setflags(write=False)
    return csr


class SparseStochasticMatrix:
    """Square nonnegative sparse matrix in canonical row-major CSR form.

    Parameters
    ----------
    matrix : array_like or scipy sparse
        Square matrix of at least one state, with nonnegative entries.
    stochastic : bool, optional
        When True (default) every row sum must equal 1 within ``1e-12``.
        Pass False for matrices that are merely nonnegative (count matrices,
        perturbations of stochastic matrices, ...).

    Notes
    -----
    Canonical form means entries are stored row-major with sorted columns,
    without duplicates and without explicit zeros, so two equal matrices have
    identical buffers.  Stored buffers are read-only.
    """

    __slots__ = ("_csr", "stochastic")

    def __init__(self, matrix, stochastic: bool = True):
        csr = _canonical_csr(matrix)
        if csr.shape[0] != csr.shape[1] or csr.shape[0] == 0:
            raise DimensionMismatch(f"matrix must be square and nonempty, got {csr.shape}")
        if csr.nnz and csr.data.min() < 0.0:
            raise ValueError("matrix entries must be nonnegative")
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix entries must be finite")
        if stochastic:
            err = stochasticity_residual(csr)
            if err > STOCHASTIC_TOL:
                raise ValueError(
                    f"row sums deviate from 1 by {err:.3e} (> {STOCHASTIC_TOL:.0e}); "
                    "construct with stochastic=False or normalize first"
                )
        self._csr = _freeze(csr)
        self.stochastic = bool(stochastic)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dense(cls, array) -> "SparseStochasticMatrix":
        return cls(np.asarray(array, dtype=float))

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        return cls(sp.coo_matrix((values, (rows, cols)), shape=(n, n)))

    # -- accessors ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def csr(self) -> sp.csr_matrix:
        """The canonical CSR storage (buffers are read-only)."""
        return self._csr

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def submatrix(self, indices, stochastic: bool = True):
        """Restriction to ``indices`` x ``indices`` (distinct, in any order),
        as a new canonical matrix."""
        idx = np.asarray(indices, dtype=np.intp)
        rows, cols, vals = _gather(self._csr, idx)
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(idx.size, idx.size))
        return SparseStochasticMatrix(coo, stochastic=stochastic)

    def __repr__(self):
        kind = "stochastic" if self.stochastic else "nonnegative"
        return f"<SparseStochasticMatrix {self.n}x{self.n}, nnz={self.nnz}, {kind}>"


class ProbabilityVector:
    """Nonnegative vector summing to 1, with its support.

    The support uses the zero threshold ``10 * eps * n``: entries at or below
    it count as zero mass.  Which states are transient is decided by the
    chain's structure (see
    :func:`~revmarkov.chain_analysis.ergodic_decomposition`); the threshold
    only judges whether a supplied vector puts mass off the ergodic classes.
    """

    __slots__ = ("_values", "_support")

    def __init__(self, values):
        vals = np.array(values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("probability vector must not be empty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("probabilities must be finite")
        if vals.min() < 0.0:
            raise ValueError("probabilities must be nonnegative")
        total = vals.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 (got {total!r})")
        vals.setflags(write=False)
        self._values = vals
        support = np.flatnonzero(vals > self.zero_threshold(vals.size))
        support.setflags(write=False)
        self._support = support

    @staticmethod
    def zero_threshold(n: int) -> float:
        return 10.0 * np.finfo(float).eps * n

    @property
    def n(self) -> int:
        return self._values.size

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def support(self) -> np.ndarray:
        """Indices with mass above the zero threshold, ascending."""
        return self._support

    def restrict(self, indices) -> "ProbabilityVector":
        """Restriction to ``indices``, renormalized to sum 1."""
        idx = np.asarray(indices, dtype=np.intp)
        sub = self._values[idx]
        total = sub.sum()
        if total <= 0.0:
            raise ValueError("restriction has no probability mass")
        return ProbabilityVector(sub / total)

    def __repr__(self):
        return f"<ProbabilityVector n={self.n}, support={self._support.size}>"


class SparsityPattern:
    """Binary support of a square matrix.

    Any support is accepted; the QP reduction checks that the pattern is
    symmetric with a full diagonal when it takes the pattern's positions.
    """

    __slots__ = ("_csr",)

    def __init__(self, matrix):
        csr = _canonical_csr(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise DimensionMismatch(f"pattern must be square, got {csr.shape}")
        csr.data[:] = 1.0
        self._csr = _freeze(csr)

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def size(self) -> int:
        """Number of admissible positions."""
        return self._csr.nnz

    @property
    def csr(self) -> sp.csr_matrix:
        return self._csr

    def __repr__(self):
        return f"<SparsityPattern {self.n}x{self.n}, size={self.size}>"


# -- operations ---------------------------------------------------------------


def row_normalize(counts) -> SparseStochasticMatrix:
    """Divide every row of a nonnegative matrix by its sum.

    Parameters
    ----------
    counts : array_like, scipy sparse or SparseStochasticMatrix
        Nonnegative matrix; every row must have at least one positive entry.

    Returns
    -------
    SparseStochasticMatrix
        Stochastic matrix with exactly the support of ``counts``.

    Raises
    ------
    ZeroRow
        If some row is entirely zero.
    """
    if isinstance(counts, SparseStochasticMatrix):
        counts = counts.csr
    # only read below, so a canonical input needs no copy
    csr = counts if _is_canonical(counts) else _canonical_csr(counts)
    if csr.nnz and csr.data.min() < 0.0:
        raise ValueError("count matrix entries must be nonnegative")
    row_sums = _row_sums(csr)
    zero_rows = np.flatnonzero(row_sums <= 0.0)
    if zero_rows.size:
        raise ZeroRow(int(zero_rows[0]))
    lengths = np.diff(csr.indptr)
    with np.errstate(over="ignore"):
        inv = 1.0 / row_sums
    data = csr.data * np.repeat(inv, lengths)
    tiny = np.isinf(inv)
    if tiny.any():
        # a sum below about 5.6e-309 has no finite reciprocal: divide its row
        entries = np.repeat(tiny, lengths)
        data[entries] = csr.data[entries] / np.repeat(row_sums, lengths)[entries]
    out = sp.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)
    return SparseStochasticMatrix(out, stochastic=True)


def _as_csr(matrix) -> sp.csr_matrix:
    if isinstance(matrix, SparseStochasticMatrix):
        return matrix.csr
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def detailed_balance_residual(P, pi: ProbabilityVector) -> float:
    """Largest violation of the flux-symmetry equations.

    Returns ``max_{i,j} |pi_i P_ij - pi_j P_ji|``, which is zero exactly when
    ``P`` is reversible with respect to ``pi``.
    """
    csr = _as_csr(P)
    if isinstance(pi, ProbabilityVector):
        pi_values = pi.values
    else:
        pi_values = np.asarray(pi, dtype=float).ravel()
    if csr.shape != (pi_values.size, pi_values.size):
        raise DimensionMismatch(
            f"matrix is {csr.shape[0]}x{csr.shape[1]} but pi has length {pi_values.size}"
        )
    if not csr.has_canonical_format:
        csr = _canonical_csr(csr)
    # each flux pi_i X_ij meets its reciprocal pi_j X_ji (0 when absent) at
    # the same position of the transpose
    flux = _CSRArrays(pi_values[_edge_rows(csr)] * csr.data, csr.indices, csr.indptr, csr.shape)
    back = _transpose(flux)
    if np.array_equal(back.indptr, flux.indptr) and np.array_equal(back.indices, flux.indices):
        gap = _CSRArrays(flux.data - back.data, flux.indices, flux.indptr, flux.shape)
    else:  # some entry lacks its reciprocal: subtract over the union
        gap = _scipy(flux) - _scipy(back)
    off = _edge_rows(gap) != gap.indices
    return float(np.max(np.abs(gap.data[off]), initial=0.0))


def frobenius_distance(A, B) -> float:
    """Frobenius norm of ``A - B`` over the union of supports."""
    a, b = _as_csr(A), _as_csr(B)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    diff = (a - b).tocoo()
    return float(np.sqrt(np.sum(diff.data**2))) if diff.nnz else 0.0


def symmetrized_pattern(P) -> SparsityPattern:
    """Admissible modification pattern: support of ``P`` union its transpose
    union the full diagonal."""
    csr = _as_csr(P)
    n = csr.shape[0]
    if n != csr.shape[1]:
        raise DimensionMismatch("matrix must be square")
    pattern = sp.csr_matrix(
        (np.ones(csr.nnz), csr.indices, csr.indptr), shape=csr.shape
    )
    return SparsityPattern(pattern + pattern.T + sp.identity(n, format="csr"))


def stochasticity_residual(P) -> float:
    """Infinity norm of the row-sum deviation from 1."""
    csr = _as_csr(P)
    if csr.shape[0] != csr.shape[1]:
        raise DimensionMismatch("matrix must be square")
    row_sums = _row_sums(csr)
    return float(np.abs(row_sums - 1.0).max()) if row_sums.size else 0.0


def stationarity_residual(P, pi) -> float:
    """Infinity norm of ``pi^T P - pi^T``."""
    csr = _as_csr(P)
    pi_values = pi.values if isinstance(pi, ProbabilityVector) else np.asarray(pi, dtype=float).ravel()
    if csr.shape[0] != pi_values.size:
        raise DimensionMismatch("dimensions of P and pi disagree")
    flow = np.empty(csr.shape[1])
    _csr_apply_transposed(csr, pi_values, flow)
    return float(np.abs(flow - pi_values).max())
