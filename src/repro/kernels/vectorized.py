"""The library's kernel set: batched NumPy forms of the per-block loops.

Selected-block operations (re-verification, correction and the ``t1``
refresh) take one of two paths, chosen by the number of selected blocks.
A selection of more than :data:`MAX_SLICED_BLOCKS` blocks gathers its row
(or entry) ranges into a single flat index array
(:func:`repro.kernels.base.flat_segment_indices`) and reduces with
``np.add.reduceat``: a fixed few dozen NumPy calls, however many blocks
are selected.  A smaller selection, such as a correction round's one or
two flagged blocks, reads each block's contiguous rows and CSR entries as
slices: one gather, one multiply and one ``np.add.reduceat`` per block.
Both paths reduce every row/segment in the same order as the per-block
reference loops of the test suite's oracle, so recomputed values are
bit-identical across paths and sets; whole-block dot products may differ
from the oracle's BLAS calls in the last ulp, which the differential
suite checks against the paper's own rounding bounds.

``encode`` groups ``A``'s entries by ``(block, column)`` without sorting
them.  Each row block's column envelope (the range from its smallest to
its largest stored column) is laid end to end with the others; one
scatter marks the cells ``A`` occupies, and the marked cells, in order,
are ``C``'s pattern.  ``np.add.at`` then sums every group sequentially in
row order, as the oracle's per-block encoder does, so ``C`` is
bit-identical.  Inputs
whose envelopes hold more than :data:`ENVELOPE_CELLS_PER_ENTRY` cells per
stored entry sort their entries through ``CooMatrix.to_csr`` instead,
which groups and sums in the same order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeMismatchError
from repro.kernels.base import (
    ACCUMULATION_DTYPE,
    KernelSet,
    Tamper,
    flat_segment_indices,
    segment_sums,
    validate_blocks,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.core.blocking import BlockPartition
    from repro.sparse.csr import CsrMatrix

#: Largest ratio of envelope cells to stored entries that :meth:`encode`
#: groups through the column envelopes; a wider input sorts its entries
#: instead.  The marks and slots grow with the cells, the sort only with
#: the entries.  Measured against the sort on random SPD patterns (2-CPU
#: Xeon, NumPy 2.4), both bit-identical: at 4.5 cells per entry the
#: envelope pass took 0.65x the time and 0.70x the peak memory, at 8.4
#: 0.85x the time but 1.05x the memory, and at 28 1.65x the time and 2.8x
#: the memory.
ENVELOPE_CELLS_PER_ENTRY = 4

#: Most blocks (checksum rows, for :meth:`~VectorizedKernels.row_checksums`)
#: a selected-block kernel reads as contiguous slices, one block at a time;
#: a larger selection gathers every range through one flat index array.  A
#: slice costs about six NumPy calls per block, the gather about 45 calls
#: whatever it selects.  Measured against the gather (2-CPU Xeon, NumPy
#: 2.4), both bit-identical: up to 6 blocks the slices were faster in all
#: three kernels on every input tried (32-row blocks of nos3, bcsstk13,
#: s3rmt3m3 and msc10848, 8-row blocks of a 10k-row random SPD matrix); at
#: 12 they were slower in ``result_checksums_for_blocks`` on all of them.
#: In ``correct_blocks`` the crossover ran from 6-8 blocks (the random SPD
#: matrix) to past 64 (msc10848).  A fault campaign's correction round
#: selects one or two blocks.
MAX_SLICED_BLOCKS = 6

#: ``np.add.reduceat``'s start index for a slice reduced as one segment.
_WHOLE = np.zeros(1, dtype=np.intp)


def _check_operand(matrix: "CsrMatrix", b: np.ndarray) -> np.ndarray:
    # The operand joins the matrix's working dtype: float64 checksum
    # matrices keep the historic float64 coercion, float32 storage keeps
    # the multiply narrow.
    b = np.asarray(b, dtype=matrix.data.dtype)
    if b.shape != (matrix.n_cols,):
        raise ShapeMismatchError(
            f"operand has shape {b.shape}, expected ({matrix.n_cols},)"
        )
    return b


def _sliced_ids(blocks: np.ndarray, n_blocks: int) -> Optional[List[int]]:
    """``blocks`` as Python ints when the slices take the selection.

    They take a 1-D integer selection of at most :data:`MAX_SLICED_BLOCKS`
    ids, each in ``[0, n_blocks)``.  Anything else returns None and goes
    to the flat gather, whose :func:`validate_blocks` raises for bad ids.
    """
    blocks = np.asarray(blocks)
    if (
        blocks.ndim != 1
        or blocks.size > MAX_SLICED_BLOCKS
        or blocks.dtype.kind not in "iu"
    ):
        return None
    ids: List[int] = blocks.tolist()
    for k in ids:
        if not 0 <= k < n_blocks:
            return None
    return ids


def _correct_sliced(
    matrix: "CsrMatrix",
    partition: "BlockPartition",
    b: np.ndarray,
    r: np.ndarray,
    ids: List[int],
    tamper: Tamper,
) -> Tuple[int, int]:
    """:meth:`VectorizedKernels.correct_blocks` over contiguous slices."""
    indptr = matrix.indptr
    row_lengths = matrix.row_lengths()
    rows = nnz = 0
    for k in ids:
        lo, hi = partition.bounds(k)
        p0, p1 = int(indptr[lo]), int(indptr[hi])
        products = matrix.data[p0:p1] * b.take(matrix.indices[p0:p1])
        if np.count_nonzero(row_lengths[lo:hi]) == hi - lo:
            # reprolint: disable=ABFT002 -- each row sums left to right, as
            # in segment_sums and the oracle's row-range SpMV
            sums = np.add.reduceat(products, indptr[lo:hi] - p0)
        else:
            sums = segment_sums(products, indptr[lo : hi + 1] - p0)
        if tamper is not None:
            tamper("corrected", sums, 2.0 * (p1 - p0))
        r[lo:hi] = sums
        rows += hi - lo
        nnz += p1 - p0
    return rows, nnz


class VectorizedKernels(KernelSet):
    """Batched/segment-sum implementations of the hot-path kernels."""

    name = "vectorized"

    # -- weights / encoding ------------------------------------------------
    def linear_weights(self, partition: "BlockPartition") -> np.ndarray:
        if partition.n_rows == 0:
            return np.empty(0, dtype=ACCUMULATION_DTYPE)
        starts = partition.block_starts()[:-1]
        ramp = np.arange(partition.n_rows, dtype=ACCUMULATION_DTYPE)
        return ramp - np.repeat(starts, partition.block_lengths()) + 1.0

    def encode(
        self,
        source: "CsrMatrix",
        partition: "BlockPartition",
        weights: np.ndarray,
    ) -> "CsrMatrix":
        from repro.sparse.coo import CooMatrix
        from repro.sparse.csr import CsrMatrix

        # Block k's envelope is the column range [first[k], first[k] + width[k]).
        block_ptr = source.indptr[partition.block_starts()]
        block_nnz = np.diff(block_ptr)
        nonempty = np.flatnonzero(block_nnz)
        first = np.zeros(partition.n_blocks, dtype=np.int64)
        width = np.zeros(partition.n_blocks, dtype=np.int64)
        if nonempty.size:
            starts = block_ptr[nonempty]
            first[nonempty] = np.minimum.reduceat(source.indices, starts)
            width[nonempty] = np.maximum.reduceat(source.indices, starts)
            width[nonempty] += 1 - first[nonempty]
        offsets = np.zeros(partition.n_blocks + 1, dtype=np.int64)
        # reprolint: disable=ABFT002 -- an integer prefix sum is exact in any order
        np.cumsum(width, out=offsets[1:])
        n_cells = int(offsets[-1])
        if n_cells > ENVELOPE_CELLS_PER_ENTRY * source.nnz:
            # The sort reads its column array and never writes it, so this
            # temporary COO may share A's.
            return CooMatrix(
                (partition.n_blocks, source.n_cols),
                np.repeat(np.arange(partition.n_blocks, dtype=np.int64), block_nnz),
                source.indices,
                source.data * weights[source.entry_rows()],
            ).to_csr()
        # Envelopes laid end to end: every (block, column) pair owns one cell,
        # and cell order is C's (block, column) order.
        shift = offsets[:-1] - first
        cells = np.repeat(shift, block_nnz)
        cells += source.indices
        marks = np.zeros(n_cells, dtype=bool)
        marks[cells] = True
        pattern = np.flatnonzero(marks)
        del marks
        slot = np.empty(n_cells, dtype=np.int64)
        slot[pattern] = np.arange(pattern.size, dtype=np.int64)
        cells = slot[cells]
        del slot
        weighted = np.repeat(weights, source.row_lengths())
        weighted *= source.data
        # Sequential in CSR order, so each (block, column) group sums in row
        # order, as the naive encoder and the sorted COO grouping do.
        values = np.zeros(pattern.size, dtype=ACCUMULATION_DTYPE)
        np.add.at(values, cells, weighted)
        indptr = np.searchsorted(pattern, offsets)
        pattern -= np.repeat(shift, np.diff(indptr))
        return CsrMatrix((partition.n_blocks, source.n_cols), indptr, pattern, values)

    # -- detection ---------------------------------------------------------
    def result_checksums(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        out: Optional[np.ndarray] = None,
        workspace: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if partition.n_blocks == 0:
            return out if out is not None else np.empty(0, dtype=ACCUMULATION_DTYPE)
        # Corrupted results may contain inf/NaN; they must propagate into
        # the checksums silently (detection flags them downstream).
        with np.errstate(invalid="ignore", over="ignore"):
            if workspace is None:
                weighted = weights * r
            else:
                if r.dtype != workspace.dtype:
                    # Widen a narrow result in place first: the values the
                    # mixed-dtype multiply would cast, without its
                    # transient cast buffer.
                    np.copyto(workspace, r)
                    r = workspace
                np.multiply(weights, r, out=workspace)
                weighted = workspace
            starts = partition.block_starts()[:-1]
            if out is None:
                # reprolint: disable=ABFT002 -- left-to-right segment order is
                # the kernel contract, differentially tested against naive
                return np.add.reduceat(weighted, starts)
            # reprolint: disable=ABFT002 -- same reduction into a caller buffer
            np.add.reduceat(weighted, starts, out=out)
            return out

    def result_checksums_for_blocks(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        blocks: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        ids = _sliced_ids(blocks, partition.n_blocks)
        if ids is not None:
            if out is None:
                out = np.empty(len(ids), dtype=ACCUMULATION_DTYPE)
            with np.errstate(invalid="ignore", over="ignore"):
                for j, k in enumerate(ids):
                    lo, hi = partition.bounds(k)
                    # reprolint: disable=ABFT002 -- one left-to-right segment,
                    # the order of the flat path's segment_sums
                    out[j] = np.add.reduceat(weights[lo:hi] * r[lo:hi], _WHOLE)[0]
            return out
        blocks = validate_blocks(blocks, partition.n_blocks)
        if blocks.size == 0:
            return out if out is not None else np.empty(0, dtype=ACCUMULATION_DTYPE)
        starts = partition.block_starts()
        indices, offsets = flat_segment_indices(starts[blocks], starts[blocks + 1])
        with np.errstate(invalid="ignore", over="ignore"):
            return segment_sums(weights[indices] * r[indices], offsets, out=out)

    def compare_syndromes(
        self, t1: np.ndarray, t2: np.ndarray, thresholds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        with np.errstate(invalid="ignore", over="ignore"):
            syndrome = np.asarray(t1, dtype=ACCUMULATION_DTYPE) - t2
            exceeded = np.abs(syndrome) > thresholds
            exceeded |= ~np.isfinite(syndrome)
        return syndrome, exceeded

    # -- correction --------------------------------------------------------
    def correct_blocks(
        self,
        matrix: "CsrMatrix",
        partition: "BlockPartition",
        b: np.ndarray,
        r: np.ndarray,
        blocks: np.ndarray,
        tamper: Tamper = None,
    ) -> Tuple[int, int]:
        ids = _sliced_ids(blocks, partition.n_blocks)
        if ids is not None:
            b = _check_operand(matrix, b)
            return _correct_sliced(matrix, partition, b, r, ids, tamper)
        blocks = validate_blocks(blocks, partition.n_blocks)
        b = _check_operand(matrix, b)
        starts = partition.block_starts()
        block_lo, block_hi = starts[blocks], starts[blocks + 1]
        row_indices, row_offsets = flat_segment_indices(block_lo, block_hi)
        entry_indices, entry_offsets = flat_segment_indices(
            matrix.indptr[row_indices], matrix.indptr[row_indices + 1]
        )
        products = matrix.data[entry_indices] * b[matrix.indices[entry_indices]]
        sums = segment_sums(products, entry_offsets)
        if tamper is None:
            r[row_indices] = sums
        else:
            # The hook-call sequence (one call per block, in order) is part
            # of the kernel contract; campaigns replay identically.
            block_nnz = matrix.indptr[block_hi] - matrix.indptr[block_lo]
            for i in range(blocks.size):
                segment = sums[row_offsets[i] : row_offsets[i + 1]]
                tamper("corrected", segment, 2.0 * float(block_nnz[i]))
                r[block_lo[i] : block_hi[i]] = segment
        return int(row_indices.size), int(entry_indices.size)

    def row_checksums(
        self, csr: "CsrMatrix", rows: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        ids = _sliced_ids(rows, csr.n_rows)
        if ids is not None:
            b = _check_operand(csr, b)
            values = np.zeros(len(ids), dtype=csr.data.dtype)
            nnz = 0
            for j, k in enumerate(ids):
                p0, p1 = int(csr.indptr[k]), int(csr.indptr[k + 1])
                if p1 > p0:
                    products = csr.data[p0:p1] * b.take(csr.indices[p0:p1])
                    # reprolint: disable=ABFT002 -- one left-to-right segment,
                    # the order of the flat path's segment_sums
                    values[j] = np.add.reduceat(products, _WHOLE)[0]
                    nnz += p1 - p0
            return values, nnz
        rows = validate_blocks(rows, csr.n_rows)
        b = _check_operand(csr, b)
        entry_indices, entry_offsets = flat_segment_indices(
            csr.indptr[rows], csr.indptr[rows + 1]
        )
        products = csr.data[entry_indices] * b[csr.indices[entry_indices]]
        return segment_sums(products, entry_offsets), int(entry_indices.size)
