"""BSR kernel sets: block-row recompute on dense ``(br, bc)`` tiles.

These are the ``("bsr", ...)`` entries of the kernel registry.  Only the
kernels that touch the *source matrix* differ from their CSR parents:

* ``encode`` converts the tiles back to CSR (an exact, assignment-only
  conversion — see :meth:`repro.sparse.bsr.BsrMatrix.to_csr`) and runs
  the parent encoder, so the checksum matrix is bit-identical to the one
  a CSR scheme would build for the same operator.  The checksum matrix
  itself always stays CSR; only the multiply dispatches on format.
* ``correct_blocks`` / ``row_checksums`` / ``correct_cells`` recompute
  through :meth:`repro.sparse.bsr.BsrMatrix.matvec_rows`, which replays
  the einsum-over-tiles pipeline of ``BsrMatrix._block_rows_matvec`` on
  the covering block rows — bit-identical, row for row, to the clean
  planned multiply, which is what lets a corrected shard re-enter the
  detection pass without a fresh syndrome.

Detection-side kernels (``result_checksums*``, ``compare_syndromes*``)
operate on the result vector and the CSR checksum matrix only, so they
are inherited unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.kernels.base import ACCUMULATION_DTYPE, KernelSet, Tamper, validate_blocks
from repro.kernels.naive import NaiveKernels
from repro.kernels.vectorized import VectorizedKernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.core.blocking import BlockPartition
    from repro.sparse.csr import CsrMatrix


def _as_csr(source: object) -> "CsrMatrix":
    """Exact CSR view of a format matrix (pass-through for CSR itself)."""
    from repro.sparse.csr import CsrMatrix

    if isinstance(source, CsrMatrix):
        return source
    return source.to_csr()  # type: ignore[attr-defined]


class _FormatRecomputeMixin(KernelSet):
    """Source-matrix kernels expressed through the format protocol.

    Every method here reaches the matrix only via ``matvec_rows`` /
    ``nnz_in_rows`` (the :class:`repro.sparse.formats.SparseFormat`
    surface), so one implementation serves every storage format whose
    partial multiply is bit-identical to its full multiply — the
    documented contract of BSR.  The tamper-hook sequence
    (one call per block/cell, in partition order, with ``2 * nnz`` work)
    matches the CSR kernels exactly, so fault campaigns replay
    identically under any format.
    """

    def encode(
        self,
        source: "CsrMatrix",
        partition: "BlockPartition",
        weights: np.ndarray,
    ) -> "CsrMatrix":
        return super().encode(_as_csr(source), partition, weights)

    def correct_blocks(
        self,
        matrix: "CsrMatrix",
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
            segment = matrix.matvec_rows(start, stop, b)
            block_nnz = matrix.nnz_in_rows(start, stop)
            if tamper is not None:
                tamper("corrected", segment, 2.0 * block_nnz)
            r[start:stop] = segment
            rows += stop - start
            nnz += block_nnz
        return rows, nnz

    def row_checksums(
        self, csr: "CsrMatrix", rows: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        rows = validate_blocks(rows, csr.shape[0])
        values = np.empty(rows.size, dtype=ACCUMULATION_DTYPE)
        nnz = 0
        for i, row in enumerate(rows):
            row = int(row)
            values[i] = csr.matvec_rows(row, row + 1, b)[0]
            nnz += csr.nnz_in_rows(row, row + 1)
        return values, nnz

    def correct_cells(
        self,
        matrix: "CsrMatrix",
        partition: "BlockPartition",
        b: np.ndarray,
        r: np.ndarray,
        cells: np.ndarray,
        tamper: Tamper = None,
    ) -> Tuple[int, int]:
        rows = 0
        nnz = 0
        for block, col in np.asarray(cells, dtype=np.int64).reshape(-1, 2):
            block, col = int(block), int(col)
            start, stop = partition.bounds(block)
            segment = matrix.matvec_rows(start, stop, b[:, col])
            cell_nnz = matrix.nnz_in_rows(start, stop)
            if tamper is not None:
                tamper("corrected", segment, 2.0 * cell_nnz)
            r[start:stop, col] = segment
            rows += stop - start
            nnz += cell_nnz
        return rows, nnz


class BsrNaiveKernels(_FormatRecomputeMixin, NaiveKernels):
    """Reference BSR set: per-block loops over the tile pipeline."""

    name = "naive"
    sparse_format = "bsr"


class BsrVectorizedKernels(_FormatRecomputeMixin, VectorizedKernels):
    """Batched BSR set: detection inherits the fused CSR reductions;
    recompute runs one einsum-over-tiles call per corrected block."""

    name = "vectorized"
    sparse_format = "bsr"
