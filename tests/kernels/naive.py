"""The differential oracle: one Python iteration per block.

:class:`NaiveKernels` holds the hot-path loops the library ran before its
kernels were batched, kept as the semantic baseline the vectorized set is
differentially tested against.  Per-block work is still NumPy (a slice
dot product, a row-range SpMV), but control flow iterates blocks in the
interpreter — exactly the overhead the vectorized set removes.

:func:`kernels_installed` swaps the library's kernel set
(:data:`repro.kernels.KERNELS`) for the length of a ``with`` block.
Detectors, checksum builds and baselines constructed inside it keep the
installed set.  ``tests/conftest.py``'s ``--kernels=naive`` option runs
a whole session under the oracle through it.
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

import numpy as np

import repro.kernels
from repro.errors import ShapeMismatchError
from repro.kernels.base import (
    ACCUMULATION_DTYPE,
    KernelSet,
    Tamper,
    validate_blocks,
)
from repro.sparse.csr import CsrMatrix, _segment_sums

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.blocking import BlockPartition


@contextlib.contextmanager
def kernels_installed(impl: KernelSet) -> Iterator[KernelSet]:
    """Run the block with ``impl`` as the library's kernel set."""
    saved = repro.kernels.KERNELS
    repro.kernels.KERNELS = impl
    try:
        yield impl
    finally:
        repro.kernels.KERNELS = saved


def matvec_rows(
    matrix: CsrMatrix,
    row_start: int,
    row_stop: int,
    b: np.ndarray,
    out: Optional[np.ndarray] = None,
    workspace: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Partial SpMV of ``matrix`` over rows ``[row_start, row_stop)``.

    The oracle's correction kernel: an erroneous result block is repaired
    by recomputing exactly these rows, with the per-row reduction of
    :meth:`CsrMatrix.matvec`.  ``out`` (length ``row_stop - row_start``)
    and ``workspace`` (length >= nnz of the row range) mirror
    :meth:`CsrMatrix.matvec`.
    """
    row_start, row_stop = matrix._check_row_range(row_start, row_stop)
    b = np.asarray(b, dtype=matrix.data.dtype)
    if b.shape != (matrix.n_cols,):
        raise ShapeMismatchError(
            f"operand has shape {b.shape}, expected ({matrix.n_cols},)"
        )
    lo, hi = matrix.indptr[row_start], matrix.indptr[row_stop]
    if workspace is None:
        products = matrix.data[lo:hi] * b[matrix.indices[lo:hi]]
    else:
        products = workspace[: hi - lo]
        # mode="clip": gather in place (see CsrMatrix.matvec); indices are
        # validated in-range at construction.
        np.take(b, matrix.indices[lo:hi], out=products, mode="clip")
        np.multiply(products, matrix.data[lo:hi], out=products)
    local_indptr = matrix.indptr[row_start : row_stop + 1] - lo
    return _segment_sums(products, local_indptr, row_stop - row_start, out=out)


def nnz_in_rows(matrix: CsrMatrix, row_start: int, row_stop: int) -> int:
    """Stored-entry count of ``matrix``'s rows ``[row_start, row_stop)``."""
    row_start, row_stop = matrix._check_row_range(row_start, row_stop)
    return int(matrix.indptr[row_stop] - matrix.indptr[row_start])


class NaiveKernels(KernelSet):
    """Per-block loop implementations (reference semantics)."""

    name = "naive"

    # -- weights / encoding ------------------------------------------------
    def linear_weights(self, partition: "BlockPartition") -> np.ndarray:
        weights = np.empty(partition.n_rows, dtype=ACCUMULATION_DTYPE)
        for _, start, stop in partition:
            weights[start:stop] = np.arange(1, stop - start + 1, dtype=ACCUMULATION_DTYPE)
        return weights

    def encode(
        self,
        source: CsrMatrix,
        partition: "BlockPartition",
        weights: np.ndarray,
    ) -> CsrMatrix:
        indptr = np.zeros(partition.n_blocks + 1, dtype=np.int64)
        columns = []
        values = []
        for block, start, stop in partition:
            lo, hi = source.indptr[start], source.indptr[stop]
            block_cols = source.indices[lo:hi]
            # Column j of c_k exists iff some row of A_k stores column j
            # (Figure 2's structure pass), even when values cancel to 0.
            present = np.unique(block_cols)
            indptr[block + 1] = indptr[block] + present.size
            if present.size == 0:
                continue
            accumulator = np.zeros(source.n_cols, dtype=ACCUMULATION_DTYPE)
            entry_rows = np.repeat(
                np.arange(start, stop, dtype=np.int64),
                np.diff(source.indptr[start : stop + 1]),
            )
            np.add.at(accumulator, block_cols, source.data[lo:hi] * weights[entry_rows])
            columns.append(present)
            values.append(accumulator[present])
        return CsrMatrix(
            (partition.n_blocks, source.n_cols),
            indptr,
            np.concatenate(columns) if columns else np.empty(0, dtype=np.int64),
            np.concatenate(values) if values else np.empty(0, dtype=ACCUMULATION_DTYPE),
        )

    # -- detection ---------------------------------------------------------
    def result_checksums(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        out: Optional[np.ndarray] = None,
        workspace: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # The per-block dots need no scratch vector; ``workspace`` is
        # accepted for interface parity and ignored.
        if out is None:
            out = np.empty(partition.n_blocks, dtype=ACCUMULATION_DTYPE)
        with np.errstate(invalid="ignore", over="ignore"):
            for block, start, stop in partition:
                # reprolint: disable=ABFT002 -- this dot IS the reference
                # reduction the differential suite holds other kernels to
                out[block] = float(np.dot(weights[start:stop], r[start:stop]))
        return out

    def result_checksums_for_blocks(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        blocks: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        blocks = validate_blocks(blocks, partition.n_blocks)
        if out is None:
            out = np.empty(blocks.size, dtype=ACCUMULATION_DTYPE)
        with np.errstate(invalid="ignore", over="ignore"):
            for i, block in enumerate(blocks):
                start, stop = partition.bounds(int(block))
                # reprolint: disable=ABFT002 -- same per-block dot as the full
                # detection pass; re-verification must match it bit-for-bit
                out[i] = float(np.dot(weights[start:stop], r[start:stop]))
        return out

    def compare_syndromes(
        self, t1: np.ndarray, t2: np.ndarray, thresholds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = len(t1)
        syndrome = np.empty(n, dtype=ACCUMULATION_DTYPE)
        exceeded = np.zeros(n, dtype=bool)
        for i in range(n):
            s = float(t1[i]) - float(t2[i])
            syndrome[i] = s
            exceeded[i] = abs(s) > float(thresholds[i]) or not math.isfinite(s)
        return syndrome, exceeded

    # -- correction --------------------------------------------------------
    def correct_blocks(
        self,
        matrix: CsrMatrix,
        partition: "BlockPartition",
        b: np.ndarray,
        r: np.ndarray,
        blocks: np.ndarray,
        tamper: Tamper = None,
    ) -> Tuple[int, int]:
        blocks = validate_blocks(blocks, partition.n_blocks)
        rows = 0
        nnz = 0
        for block in blocks:
            start, stop = partition.bounds(int(block))
            segment = matvec_rows(matrix, start, stop, b)
            block_nnz = nnz_in_rows(matrix, start, stop)
            if tamper is not None:
                tamper("corrected", segment, 2.0 * block_nnz)
            r[start:stop] = segment
            rows += stop - start
            nnz += block_nnz
        return rows, nnz

    def row_checksums(
        self, csr: CsrMatrix, rows: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        rows = validate_blocks(rows, csr.n_rows)
        values = np.empty(rows.size, dtype=ACCUMULATION_DTYPE)
        nnz = 0
        for i, row in enumerate(rows):
            row = int(row)
            values[i] = matvec_rows(csr, row, row + 1, b)[0]
            nnz += nnz_in_rows(csr, row, row + 1)
        return values, nnz
