"""Unit tests for the COO construction format."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse import CooMatrix


def test_from_entries_round_trips_to_dense():
    coo = CooMatrix.from_entries((2, 3), [(0, 0, 1.0), (1, 2, -2.5)])
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -2.5]])
    np.testing.assert_array_equal(coo.to_dense(), expected)


def test_from_entries_empty_is_all_zero():
    coo = CooMatrix.from_entries((3, 3), [])
    assert coo.nnz == 0
    np.testing.assert_array_equal(coo.to_dense(), np.zeros((3, 3)))


def test_from_dense_extracts_only_nonzeros():
    dense = np.array([[0.0, 3.0], [4.0, 0.0]])
    coo = CooMatrix.from_dense(dense)
    assert coo.nnz == 2
    np.testing.assert_array_equal(coo.to_dense(), dense)


def test_from_dense_rejects_1d_input():
    with pytest.raises(ShapeMismatchError):
        CooMatrix.from_dense(np.ones(4))


def test_duplicates_are_summed_in_dense_and_csr():
    coo = CooMatrix.from_entries((2, 2), [(0, 1, 2.0), (0, 1, 3.0)])
    assert coo.to_dense()[0, 1] == 5.0
    csr = coo.to_csr()
    assert csr.nnz == 1
    assert csr.to_dense()[0, 1] == 5.0


def test_deduplicated_sorts_row_major():
    coo = CooMatrix.from_entries((3, 3), [(2, 0, 1.0), (0, 2, 2.0), (0, 1, 3.0)])
    dedup = coo.deduplicated()
    np.testing.assert_array_equal(dedup.row, [0, 0, 2])
    np.testing.assert_array_equal(dedup.col, [1, 2, 0])
    np.testing.assert_array_equal(dedup.data, [3.0, 2.0, 1.0])


def test_deduplicated_keeps_cancelled_zero_structurally():
    coo = CooMatrix.from_entries((1, 1), [(0, 0, 1.0), (0, 0, -1.0)])
    dedup = coo.deduplicated()
    assert dedup.nnz == 1
    assert dedup.data[0] == 0.0


def test_transpose_swaps_axes():
    coo = CooMatrix.from_entries((2, 3), [(0, 2, 7.0)])
    t = coo.transpose()
    assert t.shape == (3, 2)
    assert t.to_dense()[2, 0] == 7.0


def test_rejects_out_of_range_row_index():
    with pytest.raises(SparseFormatError):
        CooMatrix.from_entries((2, 2), [(2, 0, 1.0)])


def test_rejects_out_of_range_column_index():
    with pytest.raises(SparseFormatError):
        CooMatrix.from_entries((2, 2), [(0, -1, 1.0)])


@pytest.mark.parametrize(
    "shape, rows, cols, message",
    [
        ((0, 5), [0, 3], [1, 2], "row index out of range"),
        ((3, 0), [1, 2], [0, 7], "column index out of range"),
    ],
    ids=["no-rows", "no-columns"],
)
def test_rejects_any_entry_on_a_zero_length_axis(shape, rows, cols, message):
    with pytest.raises(SparseFormatError, match=message):
        CooMatrix(shape, np.array(rows), np.array(cols), np.ones(2))


def test_zero_length_axis_without_entries_is_valid():
    for shape in ((0, 5), (3, 0), (0, 0)):
        coo = CooMatrix.from_entries(shape, [])
        assert coo.to_csr().shape == shape
        assert coo.to_dense().shape == shape


def test_numpy_integer_shape_is_stored_as_python_ints():
    coo = CooMatrix(
        (np.int64(3), np.int64(4)), np.array([2, 2]), np.array([1, 1]), np.ones(2)
    )
    assert coo.shape == (3, 4) and all(type(n) is int for n in coo.shape)
    np.testing.assert_array_equal(coo.deduplicated().data, [2.0])


def test_rejects_mismatched_array_lengths():
    with pytest.raises(SparseFormatError):
        CooMatrix((2, 2), np.array([0]), np.array([0, 1]), np.array([1.0]))


def test_rejects_negative_shape():
    with pytest.raises(SparseFormatError):
        CooMatrix.from_entries((-1, 2), [])


def test_to_csr_handles_trailing_empty_rows():
    coo = CooMatrix.from_entries((4, 4), [(0, 0, 1.0)])
    csr = coo.to_csr()
    np.testing.assert_array_equal(csr.indptr, [0, 1, 1, 1, 1])


# -- deduplicated(): the summation-order contract, bit for bit -------------

_UINT = {np.dtype(np.float64): np.uint64, np.dtype(np.float32): np.uint32}


def _reference_dedup(coo):
    """Stable row-major order, then each group summed one entry at a time,
    in input order, into a zero of the storage dtype."""
    order = np.lexsort((coo.col, coo.row))
    zero = coo.data.dtype.type(0)
    rows, cols, sums = [], [], []
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        if rows and (rows[-1], cols[-1]) == (r, c):
            sums[-1] = sums[-1] + v
        else:
            rows.append(r)
            cols.append(c)
            sums.append(zero + v)
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(sums, dtype=coo.data.dtype),
    )


def _assert_same_bits(dedup, expected):
    rows, cols, sums = expected
    uint = _UINT[sums.dtype]
    assert dedup.data.dtype == sums.dtype
    np.testing.assert_array_equal(dedup.row, rows)
    np.testing.assert_array_equal(dedup.col, cols)
    np.testing.assert_array_equal(dedup.data.view(uint), sums.view(uint))


def _assert_dedup_matches_reference(coo):
    _assert_same_bits(coo.deduplicated(), _reference_dedup(coo))


def _grouped_coo(rng, shape, group_size, dtype, n_groups=12, n_singletons=9):
    """``n_groups`` cells repeated ``group_size`` times plus singletons,
    shuffled, with values spanning 16 decades so the summation order
    shows in the last bits."""
    n_cells = n_groups + n_singletons
    flat = rng.choice(shape[0] * shape[1], size=n_cells, replace=False)
    cells = np.concatenate([np.repeat(flat[:n_groups], group_size), flat[n_groups:]])
    cells = rng.permutation(cells)
    values = rng.standard_normal(cells.size) * 10.0 ** rng.uniform(-8, 8, cells.size)
    return CooMatrix(shape, cells // shape[1], cells % shape[1], values.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("group_size", [1, 7, 8, 33])
def test_deduplicated_sums_each_group_sequentially(dtype, group_size):
    rng = np.random.default_rng(group_size)
    for _ in range(20):
        _assert_dedup_matches_reference(_grouped_coo(rng, (40, 30), group_size, dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_deduplicated_negative_zero_group_sums_to_positive_zero(dtype):
    coo = CooMatrix(
        (3, 4), np.array([2, 0, 2, 2]), np.array([1, 3, 1, 1]),
        np.array([-0.0, 5.0, -0.0, -0.0], dtype=dtype),
    )
    _assert_dedup_matches_reference(coo)
    assert not np.signbit(coo.deduplicated().data[1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_deduplicated_empty(dtype):
    coo = CooMatrix((3, 4), np.empty(0), np.empty(0), np.empty(0, dtype=dtype))
    _assert_dedup_matches_reference(coo)
    assert coo.deduplicated().nnz == 0


@pytest.mark.parametrize(
    "shape, lexsort_calls",
    [
        # bit_length(2**59 - 1) + bit_length(15) = 63: the tagged key fits.
        ((2**30, 2**29), 0),
        # 60 + 4 = 64 bits: the key would wrap, so lexsort runs.
        ((2**30, 2**30), 1),
        ((2**40, 2**40), 1),
    ],
)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_deduplicated_at_the_63_bit_tag_limit(shape, lexsort_calls, dtype, monkeypatch):
    rng = np.random.default_rng(63)
    # 16 entries on the 3x3 top corner; the first three hit the last cell.
    offsets = rng.integers(0, 3, (16, 2))
    offsets[:3] = 0
    rows = shape[0] - 1 - offsets[:, 0]
    cols = shape[1] - 1 - offsets[:, 1]
    values = rng.standard_normal(16) * 10.0 ** rng.uniform(-8, 8, 16)
    coo = CooMatrix(shape, rows, cols, values.astype(dtype))
    expected = _reference_dedup(coo)
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    dedup = coo.deduplicated()
    assert len(calls) == lexsort_calls
    _assert_same_bits(dedup, expected)
