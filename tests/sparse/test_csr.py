"""Unit tests for the CSR format and its kernels."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse import CooMatrix, CsrMatrix


@pytest.fixture
def paper_matrix() -> CsrMatrix:
    """The 6x6 example matrix from Section III-B of the paper."""
    dense = np.array(
        [
            [5.0, 0.0, 0.0, 4.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [4.0, 0.0, 0.0, 6.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 8.0, 0.0],
            [0.0, 2.0, 0.0, 0.0, 0.0, 7.0],
        ]
    )
    return CooMatrix.from_dense(dense).to_csr()


def test_matvec_matches_dense(paper_matrix):
    b = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_allclose(paper_matrix.matvec(b), paper_matrix.to_dense() @ b)


def test_matmul_operator(paper_matrix):
    b = np.ones(6)
    np.testing.assert_allclose(paper_matrix @ b, paper_matrix.matvec(b))


def test_matvec_with_empty_rows():
    csr = CooMatrix.from_entries((4, 4), [(1, 1, 2.0), (3, 0, 1.0)]).to_csr()
    b = np.array([10.0, 20.0, 30.0, 40.0])
    np.testing.assert_array_equal(csr.matvec(b), [0.0, 40.0, 0.0, 10.0])


def test_matvec_on_all_zero_matrix():
    csr = CooMatrix.from_entries((3, 3), []).to_csr()
    np.testing.assert_array_equal(csr.matvec(np.ones(3)), np.zeros(3))


def test_matvec_rejects_wrong_operand_shape(paper_matrix):
    with pytest.raises(ShapeMismatchError):
        paper_matrix.matvec(np.ones(5))


def test_rmatvec_matches_dense_transpose(paper_matrix):
    w = np.array([1.0, 2.0, 0.0, -1.0, 0.5, 1.0])
    np.testing.assert_allclose(paper_matrix.rmatvec(w), paper_matrix.to_dense().T @ w)


def test_row_norms(paper_matrix):
    dense = paper_matrix.to_dense()
    np.testing.assert_allclose(paper_matrix.row_norms(), np.linalg.norm(dense, axis=1))


def test_diagonal(paper_matrix):
    np.testing.assert_array_equal(
        paper_matrix.diagonal(), np.diag(paper_matrix.to_dense())
    )


def test_diagonal_rectangular():
    csr = CooMatrix.from_entries((2, 4), [(0, 0, 3.0), (1, 1, 4.0), (1, 3, 9.0)]).to_csr()
    np.testing.assert_array_equal(csr.diagonal(), [3.0, 4.0])


def test_nonempty_columns(paper_matrix):
    # Block of rows 0-1 touches columns 0, 1, 3, 5 (cf. the paper's Figure 2 idea).
    np.testing.assert_array_equal(paper_matrix.nonempty_columns(0, 2), [0, 1, 3, 5])
    np.testing.assert_array_equal(paper_matrix.nonempty_columns(2, 4), [0, 2, 3])
    np.testing.assert_array_equal(paper_matrix.nonempty_columns(4, 6), [1, 4, 5])


def test_row_slice_matches_dense(paper_matrix):
    sliced = paper_matrix.row_slice(1, 4)
    np.testing.assert_array_equal(sliced.to_dense(), paper_matrix.to_dense()[1:4])


def test_transpose_round_trip(paper_matrix):
    np.testing.assert_array_equal(
        paper_matrix.transpose().to_dense(), paper_matrix.to_dense().T
    )


def test_is_symmetric(paper_matrix):
    assert paper_matrix.is_symmetric()
    asym = CooMatrix.from_entries((2, 2), [(0, 1, 1.0)]).to_csr()
    assert not asym.is_symmetric()


def test_is_symmetric_false_for_rectangular():
    rect = CooMatrix.from_entries((2, 3), [(0, 0, 1.0)]).to_csr()
    assert not rect.is_symmetric()


def test_scaled(paper_matrix):
    np.testing.assert_array_equal(
        paper_matrix.scaled(2.0).to_dense(), 2.0 * paper_matrix.to_dense()
    )


def test_with_data_replaces_values(paper_matrix):
    ones = paper_matrix.with_data(np.ones(paper_matrix.nnz))
    assert ones.to_dense().sum() == paper_matrix.nnz


def test_with_data_rejects_wrong_length(paper_matrix):
    with pytest.raises(ShapeMismatchError):
        paper_matrix.with_data(np.ones(paper_matrix.nnz + 1))


def test_equality(paper_matrix):
    clone = CsrMatrix(
        paper_matrix.shape,
        paper_matrix.indptr.copy(),
        paper_matrix.indices.copy(),
        paper_matrix.data.copy(),
    )
    assert clone == paper_matrix
    assert paper_matrix.scaled(2.0) != paper_matrix


def test_not_hashable(paper_matrix):
    with pytest.raises(TypeError):
        hash(paper_matrix)


def test_density(paper_matrix):
    assert paper_matrix.density == pytest.approx(paper_matrix.nnz / 36)


def test_validation_rejects_bad_indptr():
    with pytest.raises(SparseFormatError):
        CsrMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))
    with pytest.raises(SparseFormatError):
        CsrMatrix((2, 2), np.array([1, 1, 1]), np.array([0]), np.array([1.0]))
    with pytest.raises(SparseFormatError):
        CsrMatrix((2, 2), np.array([0, 2, 1]), np.array([0]), np.array([1.0]))


def test_validation_rejects_bad_column_index():
    with pytest.raises(SparseFormatError):
        CsrMatrix((2, 2), np.array([0, 1, 1]), np.array([5]), np.array([1.0]))


def test_entry_rows(paper_matrix):
    rows = paper_matrix.entry_rows()
    dense = paper_matrix.to_dense()
    for entry_idx in range(paper_matrix.nnz):
        i = rows[entry_idx]
        j = paper_matrix.indices[entry_idx]
        assert dense[i, j] == paper_matrix.data[entry_idx]


def test_row_lengths_cached_and_frozen(paper_matrix):
    lengths = paper_matrix.row_lengths()
    np.testing.assert_array_equal(lengths, np.diff(paper_matrix.indptr))
    # Cached: repeated calls return the same array object.
    assert paper_matrix.row_lengths() is lengths
    # Frozen: the cache is shared, so writing through it must fail.
    assert not lengths.flags.writeable
    with pytest.raises(ValueError):
        lengths[0] = 99


def test_matvec_buffered_bit_identical(paper_matrix):
    b = np.array([1.0, -2.0, 3.0, 0.5, -1.5, 6.0])
    expected = paper_matrix.matvec(b)
    out = np.full(paper_matrix.n_rows, np.nan)
    workspace = np.full(paper_matrix.nnz, np.nan)
    result = paper_matrix.matvec(b, out=out, workspace=workspace)
    assert result is out
    np.testing.assert_array_equal(result, expected)


def _reference_matvec(matrix, b):
    """The SpMV arithmetic ``matvec`` is pinned to: a gather, the
    elementwise product and one ``np.add.reduceat`` over the non-empty
    row starts, all in the storage dtype (the frozen plain SpMV of the
    overhead ledger runs the same steps)."""
    b = np.asarray(b, dtype=matrix.dtype)
    products = matrix.data * b[matrix.indices]
    nonempty = np.diff(matrix.indptr) > 0
    out = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    if products.size:
        out[nonempty] = np.add.reduceat(products, matrix.indptr[:-1][nonempty])
    return out


def _with_empty_rows(n, empty, dtype, seed=3):
    """A random ``n x n`` matrix whose rows in ``empty`` store nothing."""
    rng = np.random.default_rng(seed)
    filled = np.setdiff1d(np.arange(n), empty)
    rows = np.concatenate([filled, rng.choice(filled, size=7 * n)])
    cols = rng.integers(0, n, size=rows.size)
    values = rng.standard_normal(rows.size).astype(dtype)
    return CooMatrix((n, n), rows, cols, values).to_csr()


EMPTY_ROWS = {
    "none": [],
    "leading": [0, 1, 2],
    "interior": [7, 50, 51, 120],
    "trailing": [197, 198, 199],
    "most": list(range(0, 200, 3)) + list(range(1, 200, 3)),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("empty", EMPTY_ROWS.values(), ids=EMPTY_ROWS.keys())
def test_matvec_bits_match_reference_with_empty_rows(dtype, empty):
    matrix = _with_empty_rows(200, empty, dtype)
    assert np.count_nonzero(matrix.row_lengths() == 0) == len(empty)
    b = np.random.default_rng(4).standard_normal(200).astype(dtype)
    expected = _reference_matvec(matrix, b)
    got = matrix.matvec(b)
    assert got.dtype == dtype
    bits = f"u{got.itemsize}"
    np.testing.assert_array_equal(got.view(bits), expected.view(bits))
    out = np.full(200, np.nan, dtype=dtype)
    workspace = np.full(matrix.nnz, np.nan, dtype=dtype)
    assert matrix.matvec(b, out=out, workspace=workspace) is out
    np.testing.assert_array_equal(out.view(bits), expected.view(bits))


@pytest.mark.parametrize("empty", EMPTY_ROWS.values(), ids=EMPTY_ROWS.keys())
def test_matvec_float32_into_float64_out_rounds_in_float32(empty):
    """A wider ``out`` receives the float32 row sums, not a float64 sum."""
    matrix = _with_empty_rows(200, empty, np.float32)
    b = np.random.default_rng(5).standard_normal(200).astype(np.float32)
    out = np.full(200, np.nan)
    matrix.matvec(b, out=out)
    np.testing.assert_array_equal(out, _reference_matvec(matrix, b).astype(np.float64))


@pytest.mark.parametrize("shape", [(6, 6), (4, 7), (7, 4)])
def test_diagonal_matches_a_loop_with_missing_entries_and_empty_rows(shape):
    rng = np.random.default_rng(6)
    dense = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
    dense[1, :] = 0.0  # an empty row
    dense[2, 2] = 0.0  # an unstored diagonal entry
    csr = CooMatrix.from_dense(dense).to_csr()
    expected = np.array([dense[i, i] for i in range(min(shape))])
    np.testing.assert_array_equal(csr.diagonal(), expected)


@pytest.mark.parametrize(
    "shape, indptr, indices, data, message",
    [
        ((-1, 2), [0], [], [], "negative dimension"),
        ((2, 2), [0, 1, 2], [0], [1.0], r"indptr\[-1\]=2 does not match nnz=1"),
        ((2, 2), [0, 1, 1], [0], [1.0, 2.0], "indices and data must have equal length"),
    ],
    ids=["negative-dimension", "indptr-end", "unequal-lengths"],
)
def test_validation_rejects_malformed_arrays(shape, indptr, indices, data, message):
    with pytest.raises(SparseFormatError, match=message):
        CsrMatrix(shape, np.array(indptr), np.array(indices, dtype=np.int64), np.array(data))


def test_rmatvec_rejects_a_wrong_operand_shape(paper_matrix):
    with pytest.raises(ShapeMismatchError, match="operand has shape"):
        paper_matrix.rmatvec(np.ones(paper_matrix.n_rows + 1))
