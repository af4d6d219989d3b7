"""Unit tests for the BSR format."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse import CooMatrix, block_stencil_spd, random_spd
from repro.sparse.bsr import BsrMatrix


@pytest.fixture
def csr():
    return random_spd(70, 600, seed=417)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block_shape", [1, 2, 3, 8, (2, 3), (7, 5)])
def test_round_trip_csr_bsr_csr(csr, block_shape):
    bsr = BsrMatrix.from_csr(csr, block_shape)
    assert bsr.to_csr() == csr
    assert bsr.nnz == csr.nnz


def test_round_trip_non_divisible_edges():
    # 70 rows with 16x16 tiles: the last block row/column is ragged.
    csr = random_spd(70, 600, seed=3)
    bsr = BsrMatrix.from_csr(csr, 16)
    assert bsr.n_block_rows == 5 and bsr.n_block_cols == 5
    assert bsr.to_csr() == csr


def test_explicit_zero_survives_round_trip():
    coo = CooMatrix.from_entries((6, 6), [(0, 1, 0.0), (2, 3, 5.0)])
    csr = coo.to_csr()
    bsr = BsrMatrix.from_csr(csr, 4)
    assert bsr.nnz == 2  # the explicit zero is a real (masked) entry
    assert bsr.to_csr() == csr


def test_from_coo_sums_duplicates():
    coo = CooMatrix(
        (4, 4),
        np.array([1, 1, 2]),
        np.array([2, 2, 0]),
        np.array([1.5, 2.5, -1.0]),
    )
    bsr = BsrMatrix.from_coo(coo, 2)
    assert bsr.to_csr() == coo.to_csr()
    assert bsr.nnz == 2


def test_to_dense_matches_csr(csr):
    bsr = BsrMatrix.from_csr(csr, 8)
    np.testing.assert_array_equal(bsr.to_dense(), csr.to_dense())


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block_shape", [1, 4, 16, (3, 5)])
def test_matvec_matches_csr(csr, block_shape):
    bsr = BsrMatrix.from_csr(csr, block_shape)
    b = np.random.default_rng(0).standard_normal(csr.n_cols)
    np.testing.assert_allclose(bsr.matvec(b), csr.matvec(b), rtol=1e-12)
    np.testing.assert_allclose(bsr @ b, csr @ b, rtol=1e-12)


def test_padded_operand_buffer_reuse(csr):
    bsr = BsrMatrix.from_csr(csr, 16)
    b = np.random.default_rng(2).standard_normal(csr.n_cols)
    out = np.zeros(bsr.n_block_cols * bsr.block_shape[1])
    returned = bsr.padded_operand(b, out=out)
    assert returned is out
    np.testing.assert_array_equal(out[: csr.n_cols], b)
    assert not out[csr.n_cols :].any()
    with pytest.raises(ShapeMismatchError):
        bsr.padded_operand(np.zeros(csr.n_cols + 1))


def test_matvec_out_buffer(csr):
    bsr = BsrMatrix.from_csr(csr, 8)
    b = np.random.default_rng(3).standard_normal(csr.n_cols)
    out = np.empty(csr.n_rows)
    returned = bsr.matvec(b, out=out)
    assert returned is out
    np.testing.assert_array_equal(out, bsr.matvec(b))


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def test_fill_ratio_is_exact_on_block_structured_matrix():
    csr = block_stencil_spd(36, 8, seed=5)
    bsr = BsrMatrix.from_csr(csr, 8)
    assert bsr.fill_ratio == 1.0


def test_fill_ratio_low_on_diagonal():
    diag = CooMatrix.from_dense(np.eye(16)).to_csr()
    bsr = BsrMatrix.from_csr(diag, 8)
    # Two 8x8 tiles hold 8 real entries each: fill = 8/64.
    assert bsr.fill_ratio == pytest.approx(8 / 64)


def test_empty_matrix():
    csr = CooMatrix.from_entries((9, 9), []).to_csr()
    bsr = BsrMatrix.from_csr(csr, 4)
    assert bsr.n_tiles == 0 and bsr.nnz == 0 and bsr.fill_ratio == 0.0
    np.testing.assert_array_equal(bsr.matvec(np.ones(9)), np.zeros(9))
    assert bsr.to_csr() == csr


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_rejects_bad_block_shape():
    with pytest.raises(SparseFormatError, match="block shape"):
        BsrMatrix((4, 4), 0, np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64),
                  np.empty((0, 1, 1)))


def test_rejects_inconsistent_indptr():
    with pytest.raises(SparseFormatError, match="indptr"):
        BsrMatrix((4, 4), 2, np.array([0, 1]), np.empty(0, dtype=np.int64),
                  np.empty((0, 2, 2)))


@pytest.mark.parametrize(
    "fill, rejected",
    [(1.0, True), (np.nan, True), (1e-300, True), (-5e-324, True), (-np.inf, True),
     (-0.0, False)],
)
def test_rejects_nonzero_fill_slot(fill, rejected):
    data = np.full((1, 2, 2), fill)
    mask = np.zeros((1, 2, 2), dtype=bool)
    mask[0, 0, 0] = True
    # A stored entry may hold any value; only the fill slots are checked.
    data[0, 0, 0] = np.nan
    build = lambda: BsrMatrix((2, 2), 2, np.array([0, 1]), np.array([0]), data, mask)
    if rejected:
        with pytest.raises(SparseFormatError, match="fill slots"):
            build()
    else:
        assert build().nnz == 1


def test_rejects_block_column_out_of_range():
    with pytest.raises(SparseFormatError, match="block-column"):
        BsrMatrix((2, 2), 2, np.array([0, 1]), np.array([3]), np.ones((1, 2, 2)))


@pytest.mark.parametrize(
    "shape, indptr, data, mask, message",
    [
        ((-2, 4), [0, 1, 1], np.ones((1, 2, 2)), None, "negative dimension"),
        ((4, 4), [1, 1, 1], np.ones((1, 2, 2)), None, r"indptr\[0\] must be 0"),
        ((4, 4), [0, 1, 2], np.ones((1, 2, 2)), None, "does not match tile count"),
        ((4, 4), [0, 2, 1], np.ones((1, 2, 2)), None, "indptr must be non-decreasing"),
        ((4, 4), [0, 1, 1], np.ones((1, 2, 3)), None, "data must have shape"),
        ((4, 4), [0, 1, 1], np.ones((1, 2, 2)), np.ones((1, 2, 1), dtype=bool),
         "mask must have the same shape"),
    ],
    ids=["negative-dimension", "indptr-start", "indptr-end", "indptr-order", "data-shape",
         "mask-shape"],
)
def test_rejects_malformed_arrays(shape, indptr, data, mask, message):
    with pytest.raises(SparseFormatError, match=message):
        BsrMatrix(shape, 2, np.array(indptr), np.array([0]), data, mask)
