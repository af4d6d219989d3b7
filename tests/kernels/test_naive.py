"""The naive oracle's row-range SpMV, its correction kernel, against
the full product ``CsrMatrix.matvec``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeMismatchError
from tests.kernels.naive import matvec_rows, nnz_in_rows
from tests.sparse.test_csr import paper_matrix  # noqa: F401 -- a fixture
from tests.sparse.test_properties import matrix_and_vector


def test_matvec_rows_equals_slice_of_full_product(paper_matrix):
    b = np.array([1.0, -1.0, 2.0, 0.5, 3.0, -2.0])
    full = paper_matrix.matvec(b)
    for start, stop in [(0, 2), (2, 4), (4, 6), (0, 6), (3, 3)]:
        np.testing.assert_allclose(
            matvec_rows(paper_matrix, start, stop, b), full[start:stop]
        )


def test_matvec_rows_rejects_bad_range(paper_matrix):
    with pytest.raises(ShapeMismatchError):
        matvec_rows(paper_matrix, 4, 2, np.ones(6))
    with pytest.raises(ShapeMismatchError):
        matvec_rows(paper_matrix, 0, 7, np.ones(6))


def test_nnz_in_rows(paper_matrix):
    assert nnz_in_rows(paper_matrix, 0, 2) == 4
    assert nnz_in_rows(paper_matrix, 0, 6) == paper_matrix.nnz
    assert nnz_in_rows(paper_matrix, 2, 2) == 0


def test_matvec_rows_buffered_bit_identical(paper_matrix):
    b = np.array([1.0, -2.0, 3.0, 0.5, -1.5, 6.0])
    for start, stop in [(0, 3), (2, 6), (0, 6)]:
        expected = matvec_rows(paper_matrix, start, stop, b)
        out = np.full(stop - start, np.nan)
        workspace = np.full(paper_matrix.nnz, np.nan)
        result = matvec_rows(paper_matrix, start, stop, b, out=out, workspace=workspace)
        assert result is out
        np.testing.assert_array_equal(result, expected)


@settings(max_examples=60, deadline=None)
@given(matrix_and_vector(), st.integers(0, 11), st.integers(0, 11))
def test_partial_product_consistent_with_full(mv, a, b_idx):
    csr, vec = mv
    start, stop = sorted((min(a, csr.n_rows), min(b_idx, csr.n_rows)))
    np.testing.assert_allclose(
        matvec_rows(csr, start, stop, vec),
        csr.matvec(vec)[start:stop],
        rtol=1e-12,
        atol=0,
    )
