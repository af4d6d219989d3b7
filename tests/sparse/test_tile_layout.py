"""The one tile pass (``TileLayout``) against the construction it replaced.

The fill probe and the BSR build used to compute every entry's tile key
separately: ``np.unique`` over all keys for each probed edge, then
``np.unique``, ``searchsorted`` and a 3-axis scatter for the winner.
:func:`reference_bsr` and :func:`reference_fill_ratio` keep that
construction; the storage (``indptr``, ``indices``, ``data`` bits and
dtype, ``mask``) and the fill ratio of the one pass must equal it
exactly, and ``auto`` must keep its recorded choices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SparseFormatError
from repro.sparse import (
    BsrMatrix,
    CooMatrix,
    CsrMatrix,
    banded_spd,
    block_stencil_spd,
    bsr_fill_ratio,
    build_format,
    probe_block_shape,
    random_permutation,
    random_spd,
    reverse_cuthill_mckee,
    select_format,
    suite_matrix,
    symmetric_permute,
)
from repro.sparse.bsr import TileLayout
from tests.kernels.corpus import corpus


def _shape(block_shape):
    if isinstance(block_shape, int):
        return block_shape, block_shape
    return block_shape


def reference_bsr(csr, block_shape):
    """Storage arrays ``(indptr, indices, data, mask)`` of the replaced
    ``BsrMatrix.from_csr``."""
    br, bc = _shape(block_shape)
    n_rows, n_cols = csr.shape
    nbc = -(-n_cols // bc)
    rows = csr.entry_rows()
    cols = csr.indices
    key = (rows // br) * max(nbc, 1) + cols // bc
    uniq = np.unique(key)
    n_tiles = int(uniq.size)
    data = np.zeros((n_tiles, br, bc), dtype=csr.data.dtype)
    mask = np.zeros((n_tiles, br, bc), dtype=bool)
    if n_tiles:
        tile_id = np.searchsorted(uniq, key)
        data[tile_id, rows % br, cols % bc] = csr.data
        mask[tile_id, rows % br, cols % bc] = True
    nbr = -(-n_rows // br)
    indptr = np.zeros(nbr + 1, dtype=np.int64)
    if n_tiles:
        np.cumsum(np.bincount(uniq // max(nbc, 1), minlength=nbr), out=indptr[1:])
    return indptr, uniq % max(nbc, 1), data, mask


def reference_fill_ratio(csr, block_shape):
    """The replaced ``bsr_fill_ratio``: one ``np.unique`` over all keys."""
    br, bc = _shape(block_shape)
    if csr.nnz == 0:
        return 0.0
    brow = csr.entry_rows() // br
    bcol = csr.indices // bc
    n_block_cols = max(-(-csr.n_cols // bc), 1)
    n_tiles = np.unique(brow * n_block_cols + bcol).size
    return csr.nnz / (n_tiles * br * bc)


def assert_matches_reference(csr, block_shape):
    indptr, indices, data, mask = reference_bsr(csr, block_shape)
    bsr = BsrMatrix.from_csr(csr, block_shape)
    np.testing.assert_array_equal(bsr.indptr, indptr)
    np.testing.assert_array_equal(bsr.indices, indices)
    assert bsr.data.dtype == data.dtype
    assert bsr.data.tobytes() == data.tobytes()
    np.testing.assert_array_equal(bsr.mask, mask)
    expected_fill = reference_fill_ratio(csr, block_shape)
    assert bsr_fill_ratio(csr, block_shape) == expected_fill
    assert TileLayout(csr, block_shape).fill_ratio == expected_fill


def _explicit_zeros():
    coo = CooMatrix.from_entries(
        (20, 19), [(0, 1, 0.0), (0, 2, 3.0), (9, 18, 0.0), (17, 4, -1.5), (19, 0, 0.0)]
    )
    return coo.to_csr()


def _empty():
    return CooMatrix.from_entries((13, 11), []).to_csr()


CASES = [(name, matrix) for name, matrix, _ in corpus()] + [
    ("ragged-70x70", random_spd(70, 600, seed=417)),
    ("ragged-rect-45x29", CooMatrix.from_dense(
        np.where(np.random.default_rng(5).random((45, 29)) < 0.3, 1.25, 0.0)
    ).to_csr()),
    ("explicit-zeros", _explicit_zeros()),
    ("empty", _empty()),
    ("dense-tiles-8", block_stencil_spd(12, 8, seed=1)),
    ("dense-tiles-16", block_stencil_spd(6, 16, seed=2)),
]

BLOCK_SHAPES = [1, 8, 16, (3, 5)]


@pytest.mark.parametrize("block_shape", BLOCK_SHAPES, ids=str)
@pytest.mark.parametrize("csr", [m for _, m in CASES], ids=[n for n, _ in CASES])
def test_one_pass_equals_the_replaced_construction(csr, block_shape):
    assert_matches_reference(csr, block_shape)


@st.composite
def patterns(draw, max_dim=40, max_entries=120):
    n_rows = draw(st.integers(0, max_dim))
    n_cols = draw(st.integers(0, max_dim))
    n_entries = draw(st.integers(0, max_entries)) if n_rows and n_cols else 0
    rows = draw(st.lists(st.integers(0, max(n_rows - 1, 0)),
                         min_size=n_entries, max_size=n_entries))
    cols = draw(st.lists(st.integers(0, max(n_cols - 1, 0)),
                         min_size=n_entries, max_size=n_entries))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    values = np.random.default_rng(n_entries).standard_normal(n_entries).astype(dtype)
    return CooMatrix(
        (n_rows, n_cols),
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        values,
    ).to_csr()


@settings(max_examples=150, deadline=None)
@given(
    patterns(),
    st.one_of(st.integers(1, 17), st.tuples(st.integers(1, 17), st.integers(1, 17))),
)
def test_one_pass_equals_the_replaced_construction_on_drawn_patterns(csr, block_shape):
    assert_matches_reference(csr, block_shape)


def test_runs_collapse_dense_tile_rows():
    """A dense 16-wide tile row is one run: runs = rows x tile columns."""
    csr = block_stencil_spd(6, 16, seed=2)
    layout = TileLayout(csr, 16)
    tiles_per_row = np.diff(layout.to_bsr().indptr)
    assert layout.run_starts.size == int((tiles_per_row * 16).sum())
    assert layout.run_starts.size < csr.nnz


# ----------------------------------------------------------------------
# Every entry point validates the tile shape
# ----------------------------------------------------------------------
ENTRY_POINTS = {
    "bsr_fill_ratio": lambda csr, shape: bsr_fill_ratio(csr, shape),
    "probe_block_shape": lambda csr, shape: probe_block_shape(csr, candidates=(shape,)),
    "from_csr": lambda csr, shape: BsrMatrix.from_csr(csr, shape),
    "build_format": lambda csr, shape: build_format(csr, "bsr", block_shape=shape),
}


@pytest.mark.parametrize("shape", [-8, (8, -8), 0], ids=str)
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_tile_shape(entry_point, shape):
    csr = random_spd(64, 400, seed=1)
    with np.errstate(all="raise"):
        with pytest.raises(SparseFormatError, match="block shape"):
            ENTRY_POINTS[entry_point](csr, shape)


# ----------------------------------------------------------------------
# auto keeps its recorded choices
# ----------------------------------------------------------------------
def _bcsstk13_orderings():
    original = suite_matrix("bcsstk13")
    scrambled = symmetric_permute(original, random_permutation(original.n_rows, seed=17))
    restored = symmetric_permute(scrambled, reverse_cuthill_mckee(scrambled))
    return {"original": original, "scrambled": scrambled, "scrambled+rcm": restored}


#: ``(format, tile shape, fill ratio bits)`` of ``select_format(..., "auto")``
#: on the smoke-size ``bench_formats`` inputs and the three bcsstk13
#: orderings of ``bench_ablation_reordering``, recorded before the one pass.
PINNED_AUTO = {
    "fem_bs8-smoke": ("bsr", (8, 8), "0x1.0000000000000p+0"),
    "banded-smoke": ("csr", (8, 8), "0x1.6ac42fd9b8397p-1"),
    "hostile-smoke": ("csr", (8, 8), "0x1.b78c409d10aa9p-6"),
    "bcsstk13-original": ("csr", (8, 8), "0x1.8c0658614b293p-2"),
    "bcsstk13-scrambled": ("csr", (8, 8), "0x1.d73e125910c21p-6"),
    "bcsstk13-scrambled+rcm": ("csr", (8, 8), "0x1.a2c2bc5880707p-2"),
}


def _pinned_input(name) -> CsrMatrix:
    if name.startswith("bcsstk13-"):
        return _bcsstk13_orderings()[name.split("-", 1)[1]]
    return {
        "fem_bs8-smoke": lambda: block_stencil_spd(500, 8, seed=42),
        "banded-smoke": lambda: banded_spd(4_000, half_bandwidth=8, seed=43),
        "hostile-smoke": lambda: random_spd(4_000, 48_000, seed=44),
    }[name]()


@pytest.mark.parametrize("name", sorted(PINNED_AUTO))
def test_auto_choice_is_pinned(name):
    csr = _pinned_input(name)
    choice, matrix = select_format(csr, "auto")
    expected_format, expected_shape, expected_fill = PINNED_AUTO[name]
    assert (choice.format, choice.block_shape) == (expected_format, expected_shape)
    assert choice.fill_ratio == float.fromhex(expected_fill)
    assert matrix.format_name == expected_format
    if expected_format == "bsr":
        assert_matches_reference(csr, expected_shape)
