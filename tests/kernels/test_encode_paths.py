"""The vectorized encoder's two grouping paths, against the naive encoder.

``VectorizedKernels.encode`` marks each row block's column envelope (the
range from its smallest to its largest stored column) unless the
envelopes hold more than ``ENVELOPE_CELLS_PER_ENTRY`` cells per stored
entry; then it sorts the entries through ``CooMatrix.to_csr``.  Both paths
must build the naive encoder's ``C`` bit for bit: each ``(block, column)``
group summed sequentially in row order.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.blocking import BlockPartition
from repro.core.checksum import make_weights
from repro.kernels import VectorizedKernels
from repro.kernels.vectorized import ENVELOPE_CELLS_PER_ENTRY
from repro.sparse import CooMatrix
from tests.kernels.corpus import corpus, corpus_ids
from tests.kernels.naive import NaiveKernels

WEIGHT_KINDS = ("ones", "linear", "random")


def _envelope_cells(matrix, block_size):
    cells = 0
    for start in range(0, matrix.n_rows, block_size):
        stop = min(start + block_size, matrix.n_rows)
        columns = matrix.indices[matrix.indptr[start] : matrix.indptr[stop]]
        if columns.size:
            cells += int(columns.max() - columns.min()) + 1
    return cells


def _sorts(matrix, block_size):
    return _envelope_cells(matrix, block_size) > ENVELOPE_CELLS_PER_ENTRY * matrix.nnz


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.data.dtype == b.data.dtype
    np.testing.assert_array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


@pytest.mark.parametrize("case", corpus(), ids=corpus_ids())
def test_each_case_takes_the_predicted_path(case, monkeypatch):
    _, matrix, block_size = case
    calls = []
    to_csr = CooMatrix.to_csr
    monkeypatch.setattr(CooMatrix, "to_csr", lambda coo: calls.append(1) or to_csr(coo))
    partition = BlockPartition(matrix.n_rows, block_size)
    VectorizedKernels().encode(matrix, partition, make_weights("ones", partition))
    assert len(calls) == int(_sorts(matrix, block_size))


def test_corpus_reaches_both_paths():
    paths = {_sorts(matrix, block_size) for _, matrix, block_size in corpus()}
    assert paths == {False, True}


@pytest.mark.parametrize("name", ["order-sensitive", "order-sensitive-wide"])
@pytest.mark.parametrize("kernel", [NaiveKernels, VectorizedKernels])
def test_order_sensitive_column_sums_in_row_order(name, kernel):
    matrix, block_size = {n: (m, b) for n, m, b in corpus()}[name]
    partition = BlockPartition(matrix.n_rows, block_size)
    checksum = kernel().encode(matrix, partition, make_weights("ones", partition))
    row = checksum.indices[checksum.indptr[0] : checksum.indptr[1]]
    # (1.0 + 1e16) - 1e16: the 1.0 is absorbed before the cancellation.
    assert checksum.data[checksum.indptr[0] + np.flatnonzero(row == 1)[0]] == 0.0


@st.composite
def encode_inputs(draw):
    """A CSR matrix, a block size and a weight kind.

    ``band`` patterns keep every entry within a few columns of the
    diagonal's position, so their envelopes are narrow; ``scattered``
    patterns draw columns uniformly, so wide matrices land past the sort
    threshold.  Some draws empty a random subset of blocks, and the block
    size need not divide the row count.
    """
    n_rows = draw(st.integers(0, 48))
    n_cols = draw(st.integers(1, 600))
    block_size = draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["band", "scattered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nnz = draw(st.integers(0, 6 * n_rows)) if n_rows else 0
    rows = rng.integers(0, max(n_rows, 1), nnz)
    if layout == "band":
        centre = rows * n_cols // max(n_rows, 1)
        cols = np.clip(centre + rng.integers(-2, 3, nnz), 0, n_cols - 1)
    else:
        cols = rng.integers(0, n_cols, nnz)
    if draw(st.booleans()):
        empty = rng.random(-(-n_rows // block_size)) < 0.5
        keep = ~empty[rows // block_size]
        rows, cols = rows[keep], cols[keep]
    # Magnitudes over 40 decades: any reassociated sum moves some bits.
    values = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-20, 21, rows.size)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    matrix = CooMatrix((n_rows, n_cols), rows, cols, values.astype(dtype)).to_csr()
    return matrix, block_size, draw(st.sampled_from(WEIGHT_KINDS))


@settings(max_examples=300, deadline=None)
@given(encode_inputs())
def test_vectorized_encode_matches_naive_on_both_paths(case):
    matrix, block_size, weight_kind = case
    event("sort" if _sorts(matrix, block_size) else "envelope")
    partition = BlockPartition(matrix.n_rows, block_size)
    weights = make_weights(weight_kind, partition)
    _assert_same_bits(
        VectorizedKernels().encode(matrix, partition, weights),
        NaiveKernels().encode(matrix, partition, weights),
    )
