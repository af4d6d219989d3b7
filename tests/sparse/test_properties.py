"""Property-based tests (hypothesis) for the sparse substrate.

These pin down the algebraic invariants the ABFT layer depends on:
linearity of SpMV and structural round trips.  The consistency of the
naive oracle's partial products with the full product is checked in
``tests/kernels/test_naive.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CooMatrix


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


@st.composite
def matrix_and_vector(draw):
    coo = draw(coo_matrices())
    finite = st.floats(
        min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
    )
    vec = draw(
        st.lists(finite, min_size=coo.shape[1], max_size=coo.shape[1])
    )
    return coo.to_csr(), np.asarray(vec, dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(matrix_and_vector())
def test_matvec_matches_dense_reference(mv):
    csr, b = mv
    np.testing.assert_allclose(
        csr.matvec(b), csr.to_dense() @ b, rtol=1e-9, atol=1e-6
    )


@settings(max_examples=60, deadline=None)
@given(matrix_and_vector(), st.floats(-100, 100, allow_nan=False))
def test_matvec_is_homogeneous(mv, scale):
    csr, b = mv
    np.testing.assert_allclose(
        csr.matvec(scale * b), scale * csr.matvec(b), rtol=1e-9, atol=1e-6
    )


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_csr_round_trip_through_coo(coo):
    csr = coo.to_csr()
    np.testing.assert_allclose(csr.to_coo().to_csr().to_dense(), csr.to_dense())


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_transpose_is_involution(coo):
    csr = coo.to_csr()
    np.testing.assert_array_equal(
        csr.transpose().transpose().to_dense(), csr.to_dense()
    )


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_dedup_preserves_dense_value(coo):
    # to_dense sums duplicates with the same sequential np.add.at as
    # deduplicated, so the two agree bit for bit.
    np.testing.assert_array_equal(
        coo.deduplicated().to_dense().view(np.uint64), coo.to_dense().view(np.uint64)
    )


@settings(max_examples=60, deadline=None)
@given(matrix_and_vector())
def test_rmatvec_agrees_with_transpose_matvec(mv):
    csr, _ = mv
    w = np.linspace(-1.0, 1.0, csr.n_rows)
    np.testing.assert_allclose(
        csr.rmatvec(w), csr.transpose().matvec(w), rtol=1e-9, atol=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(coo_matrices())
def test_row_norms_nonnegative_and_zero_iff_empty_row(coo):
    csr = coo.to_csr()
    norms = csr.row_norms()
    assert (norms >= 0).all()
    lengths = csr.row_lengths()
    empty = lengths == 0
    assert (norms[empty] == 0).all()
