"""Unit tests for MatrixMarket I/O."""

import io

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import (
    CooMatrix,
    banded_spd,
    matrix_market_string,
    read_matrix_market,
    write_matrix_market,
)


def test_read_general():
    text = "\n".join(
        [
            "%%MatrixMarket matrix coordinate real general",
            "% a comment",
            "2 3 2",
            "1 1 1.5",
            "2 3 -2.0",
            "",
        ]
    )
    a = read_matrix_market(io.StringIO(text))
    assert a.shape == (2, 3)
    np.testing.assert_array_equal(a.to_dense(), [[1.5, 0, 0], [0, 0, -2.0]])


def test_read_symmetric_expands_triangle():
    text = "\n".join(
        [
            "%%MatrixMarket matrix coordinate real symmetric",
            "3 3 3",
            "1 1 2.0",
            "3 1 -1.0",
            "3 3 4.0",
            "",
        ]
    )
    a = read_matrix_market(io.StringIO(text))
    dense = a.to_dense()
    assert dense[0, 2] == -1.0
    assert dense[2, 0] == -1.0
    assert a.is_symmetric()


def test_round_trip_general(tmp_path):
    original = CooMatrix.from_entries((3, 4), [(0, 1, 2.25), (2, 3, -0.5)]).to_csr()
    path = tmp_path / "m.mtx"
    write_matrix_market(original, path)
    loaded = read_matrix_market(path)
    assert loaded == original


def test_round_trip_symmetric(tmp_path):
    original = banded_spd(20, 3, 0.7, seed=11)
    path = tmp_path / "sym.mtx"
    write_matrix_market(original, path, symmetric=True)
    loaded = read_matrix_market(path)
    np.testing.assert_allclose(loaded.to_dense(), original.to_dense())


def test_round_trip_preserves_exact_floats():
    original = CooMatrix.from_entries((1, 1), [(0, 0, 1 / 3)]).to_csr()
    loaded = read_matrix_market(io.StringIO(matrix_market_string(original)))
    assert loaded.data[0] == original.data[0]


def test_rejects_non_mm_header():
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO("garbage\n1 1 0\n"))


def test_rejects_unsupported_field():
    text = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO(text))


def test_rejects_unsupported_symmetry():
    text = "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n"
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO(text))


def test_rejects_array_format():
    text = "%%MatrixMarket matrix array real general\n1 1\n1.0\n"
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO(text))


def test_rejects_entry_count_mismatch():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO(text))


def test_rejects_too_many_entries():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n"
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO(text))


def test_rejects_missing_size_line():
    text = "%%MatrixMarket matrix coordinate real general\n% only comments\n"
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO(text))


def test_rejects_malformed_entry():
    text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n"
    with pytest.raises(SparseFormatError):
        read_matrix_market(io.StringIO(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("%%MatrixMarket matrix coordinate real\n2 2 0\n", "malformed MatrixMarket header"),
        ("%%MatrixMarket matrix coordinate real general\n2 two 0\n", "malformed size line"),
    ],
    ids=["header-fields", "size-line"],
)
def test_rejects_malformed_header_and_size_lines(text, message):
    with pytest.raises(SparseFormatError, match=message):
        read_matrix_market(io.StringIO(text))
