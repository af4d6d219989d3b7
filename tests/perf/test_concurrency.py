"""Thread-safety and worker-count determinism for the ``threads`` backend.

Two properties make ``threads`` safe to enable by default:

* determinism — every kernel, run block-sharded the way a threaded plan
  splits it, and every planned multiply produce the same bits no matter
  how many workers execute them (shards are fixed by the plan,
  floating-point order never depends on scheduling);
* telemetry safety — concurrent instrumented operators sharing one
  :class:`~repro.obs.Telemetry` lose no counter increments and never
  corrupt span nesting (span stacks are thread-local).
"""

import threading

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.core.blocking import BlockPartition
from repro.kernels.vectorized import VectorizedKernels
from repro.obs import InMemoryExporter, Telemetry
from repro.perf import ProtectedPlan
from repro.sparse import random_spd
from tests.kernels.sharded import ShardedKernels

N = 256
BLOCK = 32
WORKER_COUNTS = (1, 2, 3, 4)


@pytest.fixture
def matrix():
    return random_spd(N, 2500, seed=33)


@pytest.fixture
def b():
    return np.random.default_rng(33).standard_normal(N)


@pytest.fixture
def partition():
    return BlockPartition(N, BLOCK)


def _sharded(n_workers):
    """The vectorized kernels split into ``n_workers`` threaded shards."""
    return ShardedKernels(n_shards=n_workers)


# ----------------------------------------------------------------------
# Worker-count determinism of the kernels themselves
# ----------------------------------------------------------------------
def test_result_checksums_identical_across_worker_counts(matrix, b, partition):
    weights = VectorizedKernels().linear_weights(partition)
    r = matrix.matvec(b)
    reference = VectorizedKernels().result_checksums(weights, r, partition)
    for n_workers in WORKER_COUNTS:
        np.testing.assert_array_equal(
            _sharded(n_workers).result_checksums(weights, r, partition), reference
        )


def test_blockwise_kernels_identical_across_worker_counts(matrix, b, partition):
    weights = VectorizedKernels().linear_weights(partition)
    r = matrix.matvec(b)
    blocks = np.array([0, 2, 3, 7], dtype=np.int64)
    ref = VectorizedKernels().result_checksums_for_blocks(weights, r, partition, blocks)
    ref_rows, _ = VectorizedKernels().row_checksums(matrix, np.arange(0, N, 7), b)
    for n_workers in WORKER_COUNTS:
        kernels = _sharded(n_workers)
        np.testing.assert_array_equal(
            kernels.result_checksums_for_blocks(weights, r, partition, blocks), ref
        )
        rows, _ = kernels.row_checksums(matrix, np.arange(0, N, 7), b)
        np.testing.assert_array_equal(rows, ref_rows)


def test_correct_blocks_identical_across_worker_counts(matrix, b, partition):
    blocks = np.array([1, 4, 5], dtype=np.int64)
    reference = matrix.matvec(b)
    for n_workers in WORKER_COUNTS:
        r = np.zeros(N)  # every flagged row is wrong before correction
        rows, nnz = _sharded(n_workers).correct_blocks(
            matrix, partition, b, r, blocks, None
        )
        assert rows == BLOCK * blocks.size
        for block in blocks:
            lo, hi = block * BLOCK, (block + 1) * BLOCK
            np.testing.assert_array_equal(r[lo:hi], reference[lo:hi])


# ----------------------------------------------------------------------
# Worker-count determinism of the threaded plan
# ----------------------------------------------------------------------
def test_planned_multiply_identical_across_worker_counts(matrix, b):
    reference = FaultTolerantSpMV(
        matrix, config=AbftConfig(block_size=BLOCK, kernel="vectorized")
    ).multiply(b)
    for n_workers in WORKER_COUNTS:
        op = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=BLOCK))
        # Bit-identity with the unplanned reference is the CSR contract;
        # pin it against REPRO_FORMAT overrides.
        plan = ProtectedPlan(
            op, n_shards=n_workers, parallel="threads", sparse_format="csr"
        )
        assert plan.spmv.n_shards == n_workers
        planned = plan.multiply(b)
        np.testing.assert_array_equal(planned.value, reference.value)
        assert planned.detected == reference.detected
        assert planned.seconds == reference.seconds
        assert planned.flops == reference.flops


# ----------------------------------------------------------------------
# Shared telemetry under concurrency
# ----------------------------------------------------------------------
def test_shared_telemetry_counts_every_multiply_exactly_once(matrix, b):
    n_threads, repeats = 4, 5
    telemetry = Telemetry(exporter=InMemoryExporter())
    operators = [
        FaultTolerantSpMV(matrix, block_size=BLOCK, telemetry=telemetry)
        for _ in range(n_threads)
    ]
    barrier = threading.Barrier(n_threads)
    failures = []

    def run(op):
        try:
            barrier.wait()
            plan = op.planned(sparse_format="csr")
            for _ in range(repeats):
                value = plan.multiply(b).value
                np.testing.assert_array_equal(value, matrix.matvec(b))
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(op,)) for op in operators]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    total = n_threads * repeats
    assert telemetry.registry.counter("abft.checks").value == total
    spans = telemetry.registry.histogram("span.abft.multiply.seconds")
    assert spans.snapshot()["count"] == total
    multiply_events = [
        e for e in telemetry.events()
        if e["type"] == "span" and e["name"] == "abft.multiply"
    ]
    assert len(multiply_events) == total
    # Span stacks are thread-local: a multiply span never adopts another
    # thread's span as parent.
    assert all(e["parent"] is None and e["depth"] == 0 for e in multiply_events)


def test_threaded_plan_shard_spans_report_owner(matrix, b):
    telemetry = Telemetry(exporter=InMemoryExporter())
    op = FaultTolerantSpMV(
        matrix, config=AbftConfig(block_size=BLOCK), telemetry=telemetry
    )
    # Pin the backend under test: this asserts *thread* span semantics,
    # which a REPRO_PARALLEL override must not redirect.
    plan = ProtectedPlan(op, n_shards=3, parallel="threads", sparse_format="csr")
    assert plan.spmv.n_shards == 3
    plan.multiply(b)
    shard_spans = [
        e for e in telemetry.events()
        if e["type"] == "span" and e["name"] == "plan.shard"
    ]
    assert sorted(e["attrs"]["shard"] for e in shard_spans) == [0, 1, 2]
    # Worker threads have their own (empty) span stacks, so a shard span
    # is a per-thread root rather than a child of the submitting thread's
    # abft.detect span.
    assert all(e["parent"] is None and e["depth"] == 0 for e in shard_spans)
