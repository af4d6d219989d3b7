"""(format × impl) kernel dispatch and format-kernel differential tests.

Two contracts are pinned here:

* the registry resolves two-axis ``(sparse_format, impl)`` keys while
  format-agnostic callers keep seeing the historical CSR-only view;
* the BSR kernel sets agree with the CSR reference — bit-for-bit
  where the design promises exactness (``encode`` delegates through the
  exact ``to_csr`` round trip; ``correct_*``/``row_checksums`` replay
  the storage format's own summation, so restoring an uncorrupted
  segment reproduces the format matvec's bits).
"""

import numpy as np
import pytest

from repro.core.blocking import BlockPartition
from repro.errors import ConfigurationError
from repro.kernels import (
    BUILTIN_KERNEL_KEYS,
    DEFAULT_KERNEL_FORMAT,
    KERNEL_ENV_VAR,
    available_kernel_keys,
    available_kernels,
    get_kernels,
    register_kernels,
    resolve_kernels,
    unregister_kernels,
)
from repro.kernels.bsr import BsrNaiveKernels, BsrVectorizedKernels
from repro.sparse import BsrMatrix, block_stencil_spd, random_spd

N, NNZ, BLOCK = 96, 900, 16


@pytest.fixture(autouse=True)
def _clean_kernel_env(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)


@pytest.fixture
def csr():
    return random_spd(N, NNZ, seed=99)


@pytest.fixture
def partition():
    return BlockPartition(N, BLOCK)


@pytest.fixture
def b():
    return np.random.default_rng(5).standard_normal(N)


def _format_matrix(csr, sparse_format):
    assert sparse_format == "bsr"
    return BsrMatrix.from_csr(csr, 8)


# ----------------------------------------------------------------------
# Registry: the two-axis view
# ----------------------------------------------------------------------
def test_builtin_keys_are_registered():
    keys = available_kernel_keys()
    for key in BUILTIN_KERNEL_KEYS:
        assert key in keys


def test_per_format_impl_listings():
    assert available_kernels("bsr") == ("naive", "vectorized")
    # The format-agnostic view stays the historical CSR one.
    assert available_kernels() == available_kernels(DEFAULT_KERNEL_FORMAT)
    assert available_kernels() == ("naive", "vectorized")
    assert len(available_kernel_keys()) == 4


@pytest.mark.parametrize(
    "sparse_format,impl,cls",
    [
        ("bsr", "naive", BsrNaiveKernels),
        ("bsr", "vectorized", BsrVectorizedKernels),
    ],
)
def test_get_kernels_two_axis(sparse_format, impl, cls):
    kernels = get_kernels(impl, sparse_format)
    assert isinstance(kernels, cls)
    assert kernels.sparse_format == sparse_format
    assert kernels.name == impl


def test_get_kernels_unknown_format_axis():
    with pytest.raises(ConfigurationError, match="unknown kernel set"):
        get_kernels("vectorized", "coo")


def test_available_kernels_rejects_unknown_format():
    with pytest.raises(ConfigurationError, match="registered formats"):
        available_kernels("coo")
    with pytest.raises(ConfigurationError, match="unknown kernel set"):
        get_kernels("vectorized", "ell")  # no ELL kernels ship


def test_env_override_moves_impl_axis_only(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "naive")
    resolved = resolve_kernels("vectorized", sparse_format="bsr")
    assert resolved.name == "naive"
    assert resolved.sparse_format == "bsr"


def test_register_unregister_custom_format_set():
    class _CustomBsr(BsrNaiveKernels):
        name = "custom-tiles"

    register_kernels(_CustomBsr())
    try:
        assert get_kernels("custom-tiles", "bsr").sparse_format == "bsr"
        # The CSR axis is untouched.
        with pytest.raises(ConfigurationError):
            get_kernels("custom-tiles")
    finally:
        unregister_kernels("custom-tiles", "bsr")
    with pytest.raises(ConfigurationError):
        get_kernels("custom-tiles", "bsr")


def test_builtins_cannot_be_unregistered():
    with pytest.raises(ConfigurationError, match="cannot be removed"):
        unregister_kernels("vectorized", "bsr")


# ----------------------------------------------------------------------
# Format-kernel differential: encode is bit-exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sparse_format", ["bsr"])
@pytest.mark.parametrize("impl", ["naive", "vectorized"])
def test_encode_bit_identical_to_csr(csr, partition, sparse_format, impl):
    """Format encode delegates through the exact to_csr round trip, so
    the checksum matrix matches the CSR scheme's bit for bit."""
    weights = np.ones(N)
    reference = get_kernels("vectorized").encode(csr, partition, weights)
    matrix = _format_matrix(csr, sparse_format)
    encoded = get_kernels(impl, sparse_format).encode(matrix, partition, weights)
    assert encoded == reference


# ----------------------------------------------------------------------
# Format-kernel differential: recomputation replays the format's bits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sparse_format", ["bsr"])
@pytest.mark.parametrize("impl", ["naive", "vectorized"])
def test_correct_blocks_restores_format_matvec_bits(
    csr, partition, b, sparse_format, impl
):
    matrix = _format_matrix(csr, sparse_format)
    kernels = get_kernels(impl, sparse_format)
    clean = matrix.matvec(b)
    r = clean.copy()
    blocks = np.array([0, 2, partition.n_blocks - 1])
    for block in blocks:
        start, stop = partition.bounds(int(block))
        r[start:stop] = np.nan
    rows, nnz = kernels.correct_blocks(matrix, partition, b, r, blocks)
    np.testing.assert_array_equal(r, clean)
    assert rows == sum(
        partition.bounds(int(blk))[1] - partition.bounds(int(blk))[0]
        for blk in blocks
    )
    assert nnz == sum(
        matrix.nnz_in_rows(*partition.bounds(int(blk))) for blk in blocks
    )


@pytest.mark.parametrize("sparse_format", ["bsr"])
@pytest.mark.parametrize("impl", ["naive", "vectorized"])
def test_row_checksums_match_format_matvec(csr, partition, b, sparse_format, impl):
    matrix = _format_matrix(csr, sparse_format)
    kernels = get_kernels(impl, sparse_format)
    clean = matrix.matvec(b)
    rows = np.array([0, 7, 40, N - 1])
    values, nnz = kernels.row_checksums(matrix, rows, b)
    np.testing.assert_array_equal(values, clean[rows])
    assert nnz == sum(matrix.nnz_in_rows(int(i), int(i) + 1) for i in rows)


@pytest.mark.parametrize("sparse_format", ["bsr"])
@pytest.mark.parametrize("impl", ["naive", "vectorized"])
def test_correct_cells_restores_multi_rhs_bits(
    csr, partition, sparse_format, impl
):
    matrix = _format_matrix(csr, sparse_format)
    kernels = get_kernels(impl, sparse_format)
    n_rhs = 3
    B = np.random.default_rng(11).standard_normal((N, n_rhs))
    clean = np.column_stack([matrix.matvec(B[:, j]) for j in range(n_rhs)])
    r = clean.copy()
    cells = np.array([[0, 1], [3, 0], [partition.n_blocks - 1, 2]])
    for block, col in cells:
        start, stop = partition.bounds(int(block))
        r[start:stop, col] = np.inf
    kernels.correct_cells(matrix, partition, B, r, cells)
    np.testing.assert_array_equal(r, clean)


@pytest.mark.parametrize("sparse_format", ["bsr"])
def test_tamper_hook_sequence_matches_csr(csr, partition, b, sparse_format):
    """Fault campaigns replay identically: one 'corrected' call per block,
    in block order, with the same work charges as the CSR reference."""
    matrix = _format_matrix(csr, sparse_format)
    blocks = np.array([1, 4])

    def run(kernels, source):
        calls = []
        r = source.matvec(b)

        def hook(stage, data, work):
            calls.append((stage, data.shape, work))

        kernels.correct_blocks(source, partition, b, r, blocks, tamper=hook)
        return calls

    reference = run(get_kernels("naive"), csr)
    observed = run(get_kernels("naive", sparse_format), matrix)
    assert [c[:2] for c in observed] == [c[:2] for c in reference]
    assert [c[0] for c in observed] == ["corrected"] * blocks.size


def test_bsr_correction_on_block_structured_matrix():
    """The FEM-style case BSR exists for: dense tiles, perfect fill."""
    csr = block_stencil_spd(12, 8, seed=13)
    part = BlockPartition(csr.n_rows, 8)
    bsr = BsrMatrix.from_csr(csr, 8)
    assert bsr.fill_ratio == 1.0
    b = np.random.default_rng(17).standard_normal(csr.n_cols)
    clean = bsr.matvec(b)
    r = clean.copy()
    r[8:16] = -1.0
    get_kernels("vectorized", "bsr").correct_blocks(
        bsr, part, b, r, np.array([1])
    )
    np.testing.assert_array_equal(r, clean)
