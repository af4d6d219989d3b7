"""Property suite: storage dtype survives every format conversion.

The dtype-generic refactor made float32 a first-class storage dtype; the
invariant pinned here is that no conversion in the CSR/BSR/COO
square silently widens (or narrows) it — values round-trip bit for bit
in the dtype they started in, and ``astype`` is the only sanctioned
dtype change (exact in the widening direction, round-to-nearest when
narrowing).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SparseFormatError
from repro.sparse import CooMatrix
from repro.sparse.bsr import BsrMatrix
from repro.sparse.csr import SUPPORTED_STORAGE_DTYPES
from repro.sparse.generators import random_spd

storage_dtypes = st.sampled_from(["float64", "float32"])


@st.composite
def csr_matrices(draw, max_dim=24):
    n = draw(st.integers(2, max_dim))
    nnz = draw(st.integers(n, 4 * n))
    seed = draw(st.integers(0, 2**16))
    dtype = draw(storage_dtypes)
    return random_spd(n, nnz, seed=seed, dtype=np.dtype(dtype))


@settings(max_examples=60, deadline=None)
@given(csr_matrices())
def test_coo_round_trip_preserves_dtype_and_bits(csr):
    back = csr.to_coo().to_csr()
    assert back.dtype == csr.dtype
    np.testing.assert_array_equal(back.data, csr.data)
    np.testing.assert_array_equal(back.indices, csr.indices)


@settings(max_examples=60, deadline=None)
@given(csr_matrices(), st.integers(1, 5))
def test_bsr_round_trip_preserves_dtype_and_bits(csr, block):
    bsr = BsrMatrix.from_csr(csr, block)
    assert bsr.dtype == csr.dtype
    back = bsr.to_csr()
    assert back.dtype == csr.dtype
    np.testing.assert_array_equal(back.data, csr.data)


@settings(max_examples=40, deadline=None)
@given(csr_matrices())
def test_matvec_returns_storage_dtype(csr):
    b = np.ones(csr.n_cols, dtype=csr.dtype)
    assert csr.matvec(b).dtype == csr.dtype


@settings(max_examples=40, deadline=None)
@given(csr_matrices())
def test_astype_round_trip_widening_is_exact(csr):
    """f32 -> f64 -> f32 is lossless; f64 -> f32 -> f64 is the rounding
    the caller asked for (and stays on the float32 grid)."""
    if csr.dtype == np.float32:
        back = csr.astype(np.float64).astype(np.float32)
        np.testing.assert_array_equal(back.data, csr.data)
    else:
        narrowed = csr.astype(np.float32)
        np.testing.assert_array_equal(
            narrowed.data, csr.data.astype(np.float32)
        )
        widened = narrowed.astype(np.float64)
        np.testing.assert_array_equal(
            widened.data.astype(np.float32), narrowed.data
        )


def test_astype_rejects_unsupported_storage():
    csr = random_spd(8, 30, seed=0)
    with pytest.raises(SparseFormatError):
        csr.astype(np.float16)


def test_supported_storage_dtypes_are_the_two_float_carriers():
    assert SUPPORTED_STORAGE_DTYPES == (
        np.dtype(np.float64),
        np.dtype(np.float32),
    )


def test_coo_construction_keeps_float32():
    coo = CooMatrix(
        (3, 3),
        np.array([0, 1, 2], dtype=np.int64),
        np.array([0, 1, 2], dtype=np.int64),
        np.array([1.5, 2.5, 3.5], dtype=np.float32),
    )
    assert coo.dtype == np.float32
    assert coo.to_csr().dtype == np.float32
