"""The ``parallel`` leg of the kernel suites: block-sharded threaded execution.

A ``threads`` plan never runs detection as one whole-matrix kernel
call.  :class:`repro.perf.plan.FusedShardBuffers` cuts the blocks into
nnz-balanced, block-aligned shards
(:func:`repro.perf.sharding.shard_blocks`); each shard reduces its own
result checksums and compares them, all on the shared pool of
:func:`repro.perf.backends.get_executor`.  That is only sound if every
kernel's per-block output depends on the block's own rows and nothing
else, and if the vectorized kernels may run concurrently on disjoint
slices of shared buffers.

:class:`ShardedKernels` holds every block-batched kernel to that
property: it runs the vectorized kernel once per shard, concurrently on
the shared pool, and stitches the shard outputs together.  The
differential and detection-property suites run it as the ``parallel``
set and compare it with the naive and vectorized sets over the whole
edge-case corpus.  A block never
straddles two shards, so the stitched result must match the vectorized
set bit for bit.

Calls with a tamper hook run unsharded: the hook fires once per block in
block order, which concurrent shards cannot keep (a plan likewise
detects shard by shard only when no hook is installed).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.blocking import BlockPartition
from repro.kernels import validate_blocks
from repro.kernels.base import ACCUMULATION_DTYPE, Tamper
from repro.kernels.vectorized import VectorizedKernels
from repro.perf.backends import get_executor
from repro.perf.sharding import shard_blocks
from repro.sparse import CsrMatrix

T = TypeVar("T")

#: Shards per call: three, so most corpus cases get interior cuts.
DEFAULT_SHARDS = 3


def _stack_rows(parts: Sequence[CsrMatrix], n_cols: int) -> CsrMatrix:
    """Concatenate CSR row blocks top to bottom."""
    indptr = [np.zeros(1, dtype=np.int64)]
    offset = 0
    for part in parts:
        indptr.append(part.indptr[1:] + offset)
        offset += part.nnz
    return CsrMatrix(
        (sum(part.n_rows for part in parts), n_cols),
        np.concatenate(indptr),
        np.concatenate([part.indices for part in parts] or [np.empty(0, np.int64)]),
        np.concatenate(
            [part.data for part in parts] or [np.empty(0, ACCUMULATION_DTYPE)]
        ),
    )


class ShardedKernels(VectorizedKernels):
    """Vectorized kernels run block-sharded on the threads backend's pool."""

    name = "parallel"

    def __init__(self, n_shards: int = DEFAULT_SHARDS) -> None:
        self.n_shards = n_shards

    # -- shard plumbing ------------------------------------------------------
    def _run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Run ``tasks`` concurrently on the shared pool, results in order."""
        executor = get_executor(self.n_shards)
        futures = [executor.submit(task) for task in tasks]
        return [future.result() for future in futures]

    def _spans(
        self, partition: BlockPartition, indptr: Optional[np.ndarray] = None
    ) -> List[Tuple[int, int, int, int]]:
        """``(c0, c1, r0, r1)`` block and row range of every shard.

        Cuts are nnz-balanced when a matrix is given, row-balanced
        otherwise; either way they fall on block starts.
        """
        if indptr is None:
            indptr = np.zeros(partition.n_rows + 1, dtype=np.int64)
        starts = partition.block_starts()
        cuts = shard_blocks(indptr, starts, self.n_shards)
        return [
            (int(c0), int(c1), int(starts[c0]), int(starts[c1]))
            for c0, c1 in zip(cuts[:-1], cuts[1:])
        ]

    def _each_span(
        self,
        partition: BlockPartition,
        task: Callable[[int, int, int, int], T],
        indptr: Optional[np.ndarray] = None,
    ) -> List[T]:
        """Run ``task(c0, c1, r0, r1)`` once per shard, concurrently."""
        return self._run([
            lambda span=span: task(*span) for span in self._spans(partition, indptr)
        ])

    def _each_owner(
        self,
        partition: BlockPartition,
        blocks: np.ndarray,
        task: Callable[[np.ndarray], T],
        indptr: Optional[np.ndarray] = None,
    ) -> List[T]:
        """Run ``task(positions)`` once per shard with the positions in
        ``blocks`` that the shard owns, concurrently."""
        spans = self._spans(partition, indptr)
        cuts = np.array([c0 for c0, _, _, _ in spans], dtype=np.int64)
        owner = np.searchsorted(cuts, blocks, side="right") - 1
        return self._run([
            lambda i=i: task(np.flatnonzero(owner == i)) for i in range(len(spans))
        ])

    @staticmethod
    def _sub(partition: BlockPartition, r0: int, r1: int) -> BlockPartition:
        # Shards start on a block start, so only the last one can end ragged.
        return BlockPartition(r1 - r0, partition.block_size)

    # -- weights / encoding --------------------------------------------------
    def linear_weights(self, partition: BlockPartition) -> np.ndarray:
        base = super()
        out = np.empty(partition.n_rows, dtype=ACCUMULATION_DTYPE)

        def shard(c0: int, c1: int, r0: int, r1: int) -> None:
            out[r0:r1] = base.linear_weights(self._sub(partition, r0, r1))

        self._each_span(partition, shard)
        return out

    def encode(
        self, source: CsrMatrix, partition: BlockPartition, weights: np.ndarray
    ) -> CsrMatrix:
        base = super()

        def shard(c0: int, c1: int, r0: int, r1: int) -> CsrMatrix:
            return base.encode(
                source.row_slice(r0, r1), self._sub(partition, r0, r1), weights[r0:r1]
            )

        return _stack_rows(self._each_span(partition, shard, source.indptr), source.n_cols)

    # -- detection -----------------------------------------------------------
    def result_checksums(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: BlockPartition,
        out: Optional[np.ndarray] = None,
        workspace: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        base = super()
        if out is None:
            out = np.empty(partition.n_blocks, dtype=ACCUMULATION_DTYPE)
        target = out

        def shard(c0: int, c1: int, r0: int, r1: int) -> None:
            base.result_checksums(
                weights[r0:r1], r[r0:r1], self._sub(partition, r0, r1),
                out=target[c0:c1],
                workspace=None if workspace is None else workspace[r0:r1],
            )

        self._each_span(partition, shard)
        return out

    def result_checksums_for_blocks(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: BlockPartition,
        blocks: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        base = super()
        blocks = validate_blocks(blocks, partition.n_blocks)
        if out is None:
            out = np.empty(blocks.size, dtype=ACCUMULATION_DTYPE)
        target = out

        def shard(owned: np.ndarray) -> None:
            target[owned] = base.result_checksums_for_blocks(
                weights, r, partition, blocks[owned]
            )

        self._each_owner(partition, blocks, shard)
        return out

    def compare_syndromes(
        self, t1: np.ndarray, t2: np.ndarray, thresholds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        base = super()
        syndrome = np.empty(np.shape(t1), dtype=ACCUMULATION_DTYPE)
        exceeded = np.empty(np.shape(t1), dtype=bool)

        def shard(c0: int, c1: int, r0: int, r1: int) -> None:
            syndrome[c0:c1], exceeded[c0:c1] = base.compare_syndromes(
                t1[c0:c1], t2[c0:c1], thresholds[c0:c1]
            )

        self._each_span(BlockPartition(len(t1), 1), shard)
        return syndrome, exceeded

    # -- correction ----------------------------------------------------------
    def correct_blocks(
        self,
        matrix: CsrMatrix,
        partition: BlockPartition,
        b: np.ndarray,
        r: np.ndarray,
        blocks: np.ndarray,
        tamper: Tamper = None,
    ) -> Tuple[int, int]:
        base = super()
        if tamper is not None:
            return base.correct_blocks(matrix, partition, b, r, blocks, tamper)
        blocks = validate_blocks(blocks, partition.n_blocks)

        def shard(owned: np.ndarray) -> Tuple[int, int]:
            return base.correct_blocks(matrix, partition, b, r, blocks[owned])

        counts = self._each_owner(partition, blocks, shard, matrix.indptr)
        return sum(rows for rows, _ in counts), sum(nnz for _, nnz in counts)

    def row_checksums(
        self, csr: CsrMatrix, rows: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        base = super()
        rows = validate_blocks(rows, csr.n_rows)
        values = np.empty(rows.size, dtype=ACCUMULATION_DTYPE)

        def shard(owned: np.ndarray) -> int:
            values[owned], nnz = base.row_checksums(csr, rows[owned], b)
            return nnz

        # A checksum row is one block's row of the checksum matrix.
        rows_as_blocks = BlockPartition(csr.n_rows, 1)
        return values, sum(self._each_owner(rows_as_blocks, rows, shard, csr.indptr))

