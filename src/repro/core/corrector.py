"""Partial recomputation of flagged blocks (Figure 1, step 5).

Correction is a row-range SpMV per flagged block: because the detector
already localized errors to blocks, no other rows are touched.  The cost
scales with the nnz of the flagged rows only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import repro.kernels
from repro.core.blocking import BlockPartition
from repro.kernels.base import KernelSet
from repro.machine import KernelCost, log2ceil
from repro.sparse.csr import CsrMatrix

#: Hook invoked after each numeric stage: ``tamper(stage, data, work)``.
#: ``data`` is a mutable array view — fault campaigns corrupt it in place.
TamperHook = Callable[[str, np.ndarray, float], None]


@dataclass(frozen=True)
class CorrectionOutcome:
    """Accounting of one correction round."""

    blocks: np.ndarray
    rows_recomputed: int
    nnz_recomputed: int

    @property
    def cost(self) -> KernelCost:
        """Kernel cost of the partial recomputation (one fused kernel)."""
        return KernelCost(2.0 * self.nnz_recomputed, log2ceil(max(1, self.nnz_recomputed)))


def correct_blocks(
    matrix: CsrMatrix,
    partition: BlockPartition,
    b: np.ndarray,
    r: np.ndarray,
    blocks: np.ndarray,
    tamper: Optional[TamperHook] = None,
    kernels: Optional[KernelSet] = None,
) -> CorrectionOutcome:
    """Recompute the result rows of ``blocks`` in place.

    Args:
        matrix: the input matrix ``A``.
        partition: its row-block partition.
        b: operand vector.
        r: result vector, corrected in place.
        blocks: flagged block indices.
        tamper: optional fault hook; receives each recomputed segment so
            campaigns can corrupt corrections too (errors do not pause
            while the scheme repairs earlier errors).
        kernels: kernel set recomputing the blocks (None =
            :data:`repro.kernels.KERNELS`, which recomputes a few flagged
            blocks slice by slice and many in one fused gather/segment-sum
            kernel).

    Returns:
        Row/nnz accounting for the round.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    if kernels is None:
        kernels = repro.kernels.KERNELS
    rows, nnz = kernels.correct_blocks(matrix, partition, b, r, blocks, tamper)
    return CorrectionOutcome(blocks=blocks, rows_recomputed=rows, nnz_recomputed=nnz)
