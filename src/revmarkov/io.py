"""File I/O: Matrix Market coordinate files for sparse matrices and plain-text
one-value-per-line files for probability vectors."""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

from .sparse_core import ProbabilityVector, SparseStochasticMatrix, SparsityPattern

__all__ = [
    "read_matrix",
    "write_matrix",
    "read_pattern",
    "read_probability_vector",
]


def read_matrix(path, stochastic: bool = True) -> SparseStochasticMatrix:
    """Read a sparse matrix from a Matrix Market coordinate file."""
    mat = scipy.io.mmread(path)
    return SparseStochasticMatrix(mat, stochastic=stochastic)


def write_matrix(path, matrix) -> None:
    """Write a sparse matrix as Matrix Market coordinate (real, general).

    17 significant digits are kept so float64 values round-trip exactly.
    """
    csr = matrix.csr if isinstance(matrix, SparseStochasticMatrix) else sp.csr_matrix(matrix)
    scipy.io.mmwrite(path, csr.tocoo(), field="real", symmetry="general", precision=17)


def read_pattern(path) -> SparsityPattern:
    """Read a sparsity pattern: the support of a Matrix Market file."""
    return SparsityPattern(sp.csr_matrix(scipy.io.mmread(path)))


def read_probability_vector(path) -> ProbabilityVector:
    """Read a probability vector, one value per line."""
    values = np.loadtxt(path, dtype=float, ndmin=1)
    return ProbabilityVector(values)
