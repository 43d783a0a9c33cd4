import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from dense_oracle import same_csr
from revmarkov import ProbabilityVector, SparsityPattern
from revmarkov import io as rmio


def test_matrix_roundtrip(tmp_path, chain_factory):
    P = chain_factory(9, 4)
    path = tmp_path / "chain.mtx"
    rmio.write_matrix(path, P)
    back = rmio.read_matrix(path)
    assert same_csr(back.csr, P.csr)  # 17 significant digits round-trip float64 exactly


def test_matrix_roundtrip_nonstochastic(tmp_path):
    counts = np.array([[3.0, 1.0], [0.0, 2.0]])
    path = tmp_path / "counts.mtx"
    rmio.write_matrix(path, sp.csr_matrix(counts))
    back = rmio.read_matrix(path, stochastic=False)
    assert np.array_equal(back.toarray(), counts)


def test_vector_roundtrip(tmp_path):
    pi = ProbabilityVector([0.125, 0.375, 0.5])
    path = tmp_path / "pi.txt"
    np.savetxt(path, pi.values, fmt="%.17e")
    back = rmio.read_probability_vector(path)
    assert np.array_equal(back.values, pi.values)
    # plain text, one value per line
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3


def test_pattern_roundtrip(tmp_path):
    pattern = SparsityPattern(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    path = tmp_path / "pattern.mtx"
    scipy.io.mmwrite(path, pattern.csr)
    back = rmio.read_pattern(path)
    assert same_csr(back.csr, pattern.csr)


def test_read_matrix_validates(tmp_path):
    bad = np.array([[0.5, 0.2], [0.0, 1.0]])
    path = tmp_path / "bad.mtx"
    scipy.io.mmwrite(path, sp.csr_matrix(bad))
    with pytest.raises(ValueError):
        rmio.read_matrix(path)
    assert rmio.read_matrix(path, stochastic=False).nnz == 3
