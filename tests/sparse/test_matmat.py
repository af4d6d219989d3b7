"""Unit tests for the dense-block (SpMM) CSR kernels."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError
from repro.sparse import CooMatrix, random_spd


@pytest.fixture
def matrix():
    return random_spd(60, 500, seed=131)


def test_matmat_matches_dense(matrix):
    b = np.random.default_rng(0).standard_normal((60, 7))
    np.testing.assert_allclose(matrix.matmat(b), matrix.to_dense() @ b, rtol=1e-12)


def test_matmat_single_column_matches_matvec(matrix):
    b = np.random.default_rng(1).standard_normal(60)
    np.testing.assert_array_equal(matrix.matmat(b[:, None])[:, 0], matrix.matvec(b))


def test_matmat_empty_rows():
    csr = CooMatrix.from_entries((4, 4), [(1, 1, 2.0)]).to_csr()
    b = np.ones((4, 3))
    out = csr.matmat(b)
    np.testing.assert_array_equal(out[0], np.zeros(3))
    np.testing.assert_array_equal(out[1], np.full(3, 2.0))


def test_matmat_zero_matrix():
    csr = CooMatrix.from_entries((3, 3), []).to_csr()
    np.testing.assert_array_equal(csr.matmat(np.ones((3, 2))), np.zeros((3, 2)))


def test_matmat_shape_validation(matrix):
    with pytest.raises(ShapeMismatchError):
        matrix.matmat(np.ones(60))  # 1-D
    with pytest.raises(ShapeMismatchError):
        matrix.matmat(np.ones((59, 2)))


def test_matmat_wide_operand_chunking_is_invisible(matrix, monkeypatch):
    """A wide dense block forces many chunks; every chunk boundary must be
    numerically invisible (each column reduces independently)."""
    b = np.random.default_rng(3).standard_normal((60, 64))
    unchunked = matrix.matmat(b)
    import repro.sparse.csr as csr_module

    # nnz=500, so 1000 elements => chunk width 2 => 32 chunk boundaries.
    monkeypatch.setattr(csr_module, "MATMAT_CHUNK_ELEMENTS", 1000)
    np.testing.assert_array_equal(matrix.matmat(b), unchunked)


def test_matmat_chunk_floor_of_one_column(matrix, monkeypatch):
    """nnz larger than the element budget degrades to one column per pass."""
    import repro.sparse.csr as csr_module

    monkeypatch.setattr(csr_module, "MATMAT_CHUNK_ELEMENTS", 1)
    b = np.random.default_rng(4).standard_normal((60, 5))
    monkeypatch.undo()
    expected = matrix.matmat(b)
    monkeypatch.setattr(csr_module, "MATMAT_CHUNK_ELEMENTS", 1)
    np.testing.assert_array_equal(matrix.matmat(b), expected)
