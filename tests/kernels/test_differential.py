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
(:mod:`tests.kernels.sharded`).
"""

import itertools

import numpy as np
import pytest

from repro.core import ChecksumMatrix
from repro.core.blocking import BlockPartition
from repro.core.bounds import SparseBlockBound
from repro.core.corrector import correct_blocks
from repro.errors import ConfigurationError
from repro.kernels import VectorizedKernels
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
    r = np.zeros(matrix.n_rows)
    for name in pair:
        for bad in ([-1], [checksum.n_blocks], [0, 10_000]):
            with pytest.raises(ConfigurationError):
                SETS[name].result_checksums_for_blocks(
                    checksum.weights, r, checksum.partition, np.array(bad)
                )


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
