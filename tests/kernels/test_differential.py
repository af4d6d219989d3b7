"""Differential tests: every kernel-set pair over the full corpus.

Contract (see ``repro/kernels/base.py``): structural outputs — sparsity
patterns, flag masks, accounting, tamper-call traces — must match at bit
level; floating-point reductions must agree within the paper's own
per-block rounding bound (evaluated at the operand norm), which is the
same criterion the detector itself uses to separate noise from errors.
Recomputation kernels and the encoders reduce in the same per-row order
in every set, so corrected values and the checksum matrix are asserted
bit-identical.

The sets are the library's ``vectorized`` set, the ``naive`` oracle
(:mod:`tests.kernels.naive`) and the ``parallel`` leg: the vectorized
kernels run block-sharded on the threads backend's pool
(:mod:`tests.kernels.sharded`).  The vectorized set's selected-block
kernels read up to ``MAX_SLICED_BLOCKS`` blocks as contiguous slices and
gather larger selections; both paths must produce the same bits.
"""

import itertools

import numpy as np
import pytest

from repro.core import ChecksumMatrix
from repro.core.blocking import BlockPartition
from repro.core.bounds import SparseBlockBound
from repro.core.corrector import correct_blocks
from repro.errors import ConfigurationError
from repro.kernels import VectorizedKernels, vectorized
from repro.kernels.vectorized import MAX_SLICED_BLOCKS
from tests.kernels.corpus import corpus, corpus_ids
from tests.kernels.naive import NaiveKernels
from tests.kernels.sharded import ShardedKernels

CASES = corpus()
SETS = {impl.name: impl for impl in (NaiveKernels(), ShardedKernels(), VectorizedKernels())}
KERNELS = tuple(sorted(SETS))
PAIRS = list(itertools.combinations(KERNELS, 2))
WEIGHT_KINDS = ("ones", "linear", "random")


def _case_params():
    return pytest.mark.parametrize(
        "case", CASES, ids=corpus_ids(), scope="module"
    )


def _pair_params():
    return pytest.mark.parametrize("pair", PAIRS, ids=["-vs-".join(p) for p in PAIRS])


def _rounding_tolerance(checksum: ChecksumMatrix, reference: np.ndarray) -> np.ndarray:
    """Per-block tolerance: the paper's bound at beta = ||reference||."""
    beta = float(np.linalg.norm(reference)) if reference.size else 0.0
    bound = SparseBlockBound.from_checksum(checksum)
    # A zero bound (empty block) still tolerates a few ulps of noise.
    return bound.thresholds(beta) + 1e-14 * (1.0 + np.abs(checksum.result_checksums(reference)))


@_case_params()
@_pair_params()
@pytest.mark.parametrize("weight_kind", WEIGHT_KINDS)
def test_encode_structure_and_values(case, pair, weight_kind):
    _, matrix, block_size = case
    built = [
        ChecksumMatrix.build(matrix, block_size, weight_kind, kernels=SETS[name])
        for name in pair
    ]
    a, b = (c.matrix for c in built)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    # Every encoder sums each (block, column) group sequentially in row
    # order, so C's values agree bit for bit.
    assert a.data.dtype == b.data.dtype
    np.testing.assert_array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
    np.testing.assert_array_equal(built[0].nonempty_columns, built[1].nonempty_columns)
    np.testing.assert_allclose(
        built[0].checksum_norms, built[1].checksum_norms, rtol=1e-12, atol=1e-12
    )


@_case_params()
@_pair_params()
def test_linear_weights_bit_identical(case, pair):
    _, matrix, block_size = case
    partition = BlockPartition(matrix.n_rows, block_size)
    a, b = (SETS[name].linear_weights(partition) for name in pair)
    np.testing.assert_array_equal(a, b)


@_case_params()
@_pair_params()
def test_result_checksums_within_rounding_bound(case, pair):
    _, matrix, block_size = case
    rng = np.random.default_rng(7)
    r = rng.standard_normal(matrix.n_rows)
    checksum = ChecksumMatrix.build(matrix, block_size)
    tolerance = _rounding_tolerance(checksum, r)
    a, b = (
        SETS[name].result_checksums(checksum.weights, r, checksum.partition)
        for name in pair
    )
    assert a.shape == b.shape == (checksum.n_blocks,)
    assert np.all(np.abs(a - b) <= tolerance)


@_case_params()
@_pair_params()
def test_result_checksums_for_blocks_matches_full(case, pair):
    _, matrix, block_size = case
    rng = np.random.default_rng(8)
    r = rng.standard_normal(matrix.n_rows)
    checksum = ChecksumMatrix.build(matrix, block_size)
    n_blocks = checksum.n_blocks
    subsets = [
        np.arange(n_blocks, dtype=np.int64),
        np.arange(n_blocks, dtype=np.int64)[::2],
        np.arange(n_blocks, dtype=np.int64)[::-1],
        np.empty(0, dtype=np.int64),
    ]
    if n_blocks:
        subsets.append(np.array([0, n_blocks - 1, 0], dtype=np.int64))  # duplicates
    tolerance = _rounding_tolerance(checksum, r)
    for blocks in subsets:
        a, b = (
            SETS[name].result_checksums_for_blocks(
                checksum.weights, r, checksum.partition, blocks
            )
            for name in pair
        )
        assert a.shape == b.shape == (blocks.size,)
        if blocks.size:
            assert np.all(np.abs(a - b) <= tolerance[blocks])


@_case_params()
@_pair_params()
def test_for_blocks_rejects_bad_ids_everywhere(case, pair):
    _, matrix, block_size = case
    checksum = ChecksumMatrix.build(matrix, block_size)
    partition = checksum.partition
    r = np.zeros(matrix.n_rows)
    b = np.zeros(matrix.n_cols)
    bad_ids = (
        [-1],
        [checksum.n_blocks],
        [0, 10_000],
        [0] * MAX_SLICED_BLOCKS + [checksum.n_blocks],  # past the crossover
        [[0]],  # 2-D, both sides of the crossover
        [[0] * (MAX_SLICED_BLOCKS + 1)],
    )
    for name in pair:
        kernels = SETS[name]
        for bad in map(np.array, bad_ids):
            with pytest.raises(ConfigurationError):
                kernels.result_checksums_for_blocks(checksum.weights, r, partition, bad)
            with pytest.raises(ConfigurationError):
                kernels.correct_blocks(matrix, partition, b, r.copy(), bad)
            with pytest.raises(ConfigurationError):
                kernels.row_checksums(checksum.matrix, bad, b)


@_pair_params()
@pytest.mark.parametrize(
    "t1,t2,thresholds",
    [
        ([0.0, 1.0, -3.0], [0.0, 1.0, 3.0], [0.5, 0.5, 0.5]),
        ([1.0, np.nan, np.inf], [1.0, 0.0, 0.0], [0.5, 0.5, 0.5]),
        ([1.0, 2.0], [1.0, 2.0], [np.nan, np.inf]),
        ([np.inf, -np.inf], [np.inf, np.inf], [1.0, 1.0]),
        ([1.0 + 1e-15, 5.0], [1.0, 5.0], [1e-15, 0.0]),
        ([], [], []),
    ],
)
def test_compare_syndromes_flags_bit_identical(pair, t1, t2, thresholds):
    t1, t2, thresholds = (np.asarray(x, dtype=np.float64) for x in (t1, t2, thresholds))
    results = [SETS[name].compare_syndromes(t1, t2, thresholds) for name in pair]
    (syn_a, exc_a), (syn_b, exc_b) = results
    np.testing.assert_array_equal(exc_a, exc_b)
    np.testing.assert_array_equal(np.isnan(syn_a), np.isnan(syn_b))
    np.testing.assert_array_equal(syn_a[~np.isnan(syn_a)], syn_b[~np.isnan(syn_b)])


class _TamperTrace:
    """Records the hook-call sequence so traces can be compared exactly."""

    def __init__(self):
        self.calls = []

    def __call__(self, stage, data, work):
        self.calls.append((stage, np.array(data, copy=True), float(work)))

    def assert_equal(self, other: "_TamperTrace"):
        assert len(self.calls) == len(other.calls)
        for (stage_a, data_a, work_a), (stage_b, data_b, work_b) in zip(
            self.calls, other.calls
        ):
            assert stage_a == stage_b
            assert work_a == work_b
            np.testing.assert_array_equal(data_a, data_b)


@_case_params()
@_pair_params()
def test_correct_blocks_bit_identical(case, pair):
    _, matrix, block_size = case
    partition = BlockPartition(matrix.n_rows, block_size)
    if partition.n_blocks == 0:
        pytest.skip("no blocks to correct")
    rng = np.random.default_rng(9)
    b = rng.standard_normal(matrix.n_cols)
    clean = matrix.matvec(b)
    blocks = np.arange(partition.n_blocks, dtype=np.int64)[::2]
    outputs = []
    traces = []
    for name in pair:
        r = clean + 1.0  # corrupt everything; selected blocks get repaired
        trace = _TamperTrace()
        outcome = correct_blocks(
            matrix, partition, b, r, blocks, tamper=trace, kernels=SETS[name]
        )
        outputs.append((r, outcome))
        traces.append(trace)
    (r_a, out_a), (r_b, out_b) = outputs
    np.testing.assert_array_equal(r_a, r_b)
    assert out_a.rows_recomputed == out_b.rows_recomputed
    assert out_a.nnz_recomputed == out_b.nnz_recomputed
    traces[0].assert_equal(traces[1])
    # Repaired blocks are bit-identical to the reference SpMV.
    for block in blocks:
        start, stop = partition.bounds(int(block))
        np.testing.assert_array_equal(r_a[start:stop], clean[start:stop])
    # Without a hook a set may repair shard by shard; not a bit may move.
    for name in pair:
        r = clean + 1.0
        outcome = correct_blocks(matrix, partition, b, r, blocks, kernels=SETS[name])
        np.testing.assert_array_equal(r, r_a)
        assert outcome.rows_recomputed == out_a.rows_recomputed
        assert outcome.nnz_recomputed == out_a.nnz_recomputed


@_case_params()
@_pair_params()
def test_row_checksums_bit_identical(case, pair):
    _, matrix, block_size = case
    checksum = ChecksumMatrix.build(matrix, block_size)
    rng = np.random.default_rng(10)
    b = rng.standard_normal(matrix.n_cols)
    rows = np.arange(checksum.n_blocks, dtype=np.int64)
    results = [
        SETS[name].row_checksums(checksum.matrix, rows, b) for name in pair
    ]
    (vals_a, nnz_a), (vals_b, nnz_b) = results
    np.testing.assert_array_equal(vals_a, vals_b)
    assert nnz_a == nnz_b == checksum.nnz


def _selections(matrix, partition):
    """Block selections on both sides of ``MAX_SLICED_BLOCKS``, by name."""
    n_blocks = partition.n_blocks
    last = n_blocks - 1
    cycle = np.arange(MAX_SLICED_BLOCKS + 1) % n_blocks
    picks = {
        "one": [n_blocks // 2],
        "two": [last, 0],
        "at-crossover": cycle[:MAX_SLICED_BLOCKS],
        "past-crossover": cycle,
        "first": [0],
        "last": [last],
        "duplicates": [last, 0, last],
        "reverse": np.arange(min(n_blocks, MAX_SLICED_BLOCKS))[::-1],
    }
    empty_rows = np.flatnonzero(matrix.row_lengths() == 0)
    if empty_rows.size:
        picks["empty-row"] = [int(empty_rows[-1]) // partition.block_size]
    return {name: np.asarray(ids, dtype=np.int64) for name, ids in picks.items()}


def _bits(values):
    values = np.asarray(values)
    return values.view(np.dtype(f"u{values.dtype.itemsize}"))


class _CorruptingTrace(_TamperTrace):
    """Records every hook call, then corrupts the data as a campaign does."""

    def __call__(self, stage, data, work):
        super().__call__(stage, data, work)
        if data.size:
            data[0] += 1.0


def _no_gather(*args, **kwargs):
    raise AssertionError("a selection below the crossover took the flat gather")


@_case_params()
@pytest.mark.parametrize("storage", ["float64", "float32"])
def test_sliced_selections_match_the_flat_gather(case, storage, monkeypatch):
    """Slices and the flat gather give the same bits for every selection."""
    _, matrix, block_size = case
    matrix = matrix.astype(storage)
    checksum = ChecksumMatrix.build(matrix, block_size)
    partition = checksum.partition
    if partition.n_blocks == 0:
        pytest.skip("no blocks to select")
    rng = np.random.default_rng(11)
    b = rng.standard_normal(matrix.n_cols)
    r = matrix.matvec(b) + 1.0  # every block needs repair
    r[0] = np.nan
    r[-1] = np.inf
    kernels = VectorizedKernels()

    def run(blocks):
        fixed = r.copy()
        trace = _CorruptingTrace()
        counts = kernels.correct_blocks(matrix, partition, b, fixed, blocks, trace)
        t2 = kernels.result_checksums_for_blocks(checksum.weights, r, partition, blocks)
        into = np.full(blocks.size, -1.0)
        assert kernels.result_checksums_for_blocks(
            checksum.weights, r, partition, blocks, out=into
        ) is into
        values, nnz = kernels.row_checksums(checksum.matrix, blocks, b)
        return fixed, counts, trace, t2, into, values, nnz

    for name, blocks in _selections(matrix, partition).items():
        with monkeypatch.context() as patch:
            if blocks.size <= MAX_SLICED_BLOCKS:
                patch.setattr(vectorized, "flat_segment_indices", _no_gather)
            sliced = run(blocks)
        with monkeypatch.context() as patch:
            patch.setattr(vectorized, "MAX_SLICED_BLOCKS", 0)
            flat = run(blocks)
        for got, want in zip(sliced, flat):
            if isinstance(got, _TamperTrace):
                got.assert_equal(want)
            elif isinstance(got, np.ndarray):
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)
            else:
                assert got == want, name
        # Corrections also match the oracle's row-range SpMV bit for bit.
        fixed = r.copy()
        trace = _CorruptingTrace()
        counts = NaiveKernels().correct_blocks(matrix, partition, b, fixed, blocks, trace)
        np.testing.assert_array_equal(_bits(sliced[0]), _bits(fixed), err_msg=name)
        assert sliced[1] == counts, name
        sliced[2].assert_equal(trace)
