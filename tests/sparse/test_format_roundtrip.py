"""Property-based round-trip tests (hypothesis) for CSR↔BSR↔COO.

The format engine's correctness rests on conversions being *exact*:
values and indices preserved bit for bit, duplicates summed once, fill
slots never leaking into the entry set.  These properties sweep random
shapes (including degenerate 1×n / n×1 / empty matrices) and block
shapes that do not divide the matrix dimensions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CooMatrix
from repro.sparse.bsr import BsrMatrix


@st.composite
def coo_matrices(draw, max_dim=12, max_entries=40):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    n_entries = draw(st.integers(0, max_entries))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=n_entries, max_size=n_entries)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=n_entries, max_size=n_entries)
    )
    finite = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    vals = draw(st.lists(finite, min_size=n_entries, max_size=n_entries))
    return CooMatrix(
        (n_rows, n_cols),
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )


block_shapes = st.one_of(
    st.integers(1, 7),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
)


@settings(max_examples=80, deadline=None)
@given(coo_matrices(), block_shapes)
def test_csr_bsr_csr_round_trip_is_exact(coo, block_shape):
    csr = coo.to_csr()
    back = BsrMatrix.from_csr(csr, block_shape).to_csr()
    # Bitwise structural equality: same indptr/indices/data, not just
    # numerically close values.
    assert back == csr
    np.testing.assert_array_equal(back.indptr, csr.indptr)
    np.testing.assert_array_equal(back.indices, csr.indices)
    np.testing.assert_array_equal(back.data, csr.data)


@settings(max_examples=80, deadline=None)
@given(coo_matrices(), block_shapes)
def test_bsr_coo_round_trip_preserves_entries(coo, block_shape):
    csr = coo.to_csr()
    bsr = BsrMatrix.from_csr(csr, block_shape)
    assert bsr.to_coo().to_csr() == csr
    assert bsr.nnz == csr.nnz  # fill slots never count as entries


@settings(max_examples=80, deadline=None)
@given(coo_matrices(), block_shapes)
def test_from_coo_sums_duplicates_like_csr(coo, block_shape):
    # COO→BSR must collapse duplicate coordinates exactly once, with the
    # same summation as the canonical COO→CSR conversion.
    assert BsrMatrix.from_coo(coo, block_shape).to_csr() == coo.to_csr()


@settings(max_examples=60, deadline=None)
@given(coo_matrices(), block_shapes)
def test_bsr_dense_view_matches_csr(coo, block_shape):
    csr = coo.to_csr()
    bsr = BsrMatrix.from_csr(csr, block_shape)
    np.testing.assert_array_equal(bsr.to_dense(), csr.to_dense())


@settings(max_examples=40, deadline=None)
@given(coo_matrices(), block_shapes, st.integers(0, 1_000_000))
def test_matvec_agrees_across_formats(coo, block_shape, seed):
    csr = coo.to_csr()
    b = np.random.default_rng(seed).standard_normal(csr.n_cols)
    reference = csr.to_dense() @ b
    bsr = BsrMatrix.from_csr(csr, block_shape)
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(bsr.matvec(b), reference, atol=1e-9 * scale)
