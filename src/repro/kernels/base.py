"""The kernel-set interface of the ABFT hot paths.

The scheme's per-multiply cost is dominated by a handful of kernels:
checksum encoding, result-checksum evaluation (full and per-block),
syndrome/threshold comparison, block recomputation and the ``t1``
refresh.  A :class:`KernelSet` groups one implementation of each.  The
library runs one set, :class:`repro.kernels.vectorized.VectorizedKernels`
(:data:`repro.kernels.KERNELS`); the interface also admits the
telemetry wrapper :class:`repro.obs.timing.TimedKernels` and the test
suite's reference oracle, the per-block loops the vectorized set is
differentially tested against.

Every kernel that touches a matrix takes CSR: the operator's matrix or
its checksum matrix.  A plan that multiplies in another storage format
(see :mod:`repro.sparse.formats`) still detects against the CSR checksum
matrix and recomputes flagged blocks through these kernels.

Every implementation is held to the differential-testing contract of
``tests/kernels``: structural outputs (sparsity patterns, flag masks,
accounting) must match bit-level, floating-point reductions must agree
within the paper's own rounding-error bounds.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.core.blocking import BlockPartition
    from repro.sparse.csr import CsrMatrix

#: Dtype of the checksum side of every pipeline: weights, checksum rows,
#: ``t1``/``t2``, syndromes and thresholds.  Narrow (float32) *storage*
#: changes the dtype of values and operands, never the precision the
#: detection arithmetic runs in.  Kernels allocate their
#: checksum-side buffers from this constant so the contract lives in one
#: place instead of scattered ``np.float64`` literals.
ACCUMULATION_DTYPE = np.dtype(np.float64)

#: Name of the library's kernel set: the only value ``AbftConfig.kernel``
#: and ``FtPcgOptions.kernel`` accept.
DEFAULT_KERNEL = "vectorized"

#: Fault-campaign hook signature (mirrors :data:`repro.core.corrector.TamperHook`).
Tamper = Optional[Callable[[str, np.ndarray, float], None]]


# ----------------------------------------------------------------------
# Shared segment utilities
# ----------------------------------------------------------------------
def validate_blocks(blocks: np.ndarray, n_blocks: int) -> np.ndarray:
    """Return ``blocks`` as a 1-D int64 array, rejecting out-of-range ids.

    Fancy indexing with a negative or too-large block id would silently
    mis-slice (NumPy wraps negatives); every kernel therefore validates
    eagerly and raises a clear :class:`ConfigurationError`.  A single
    (0-d) id selects one block; an array of two or more dimensions is
    rejected.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim > 1:
        raise ConfigurationError(
            f"block ids must be a 1-D array, got shape {blocks.shape}"
        )
    blocks = blocks.reshape(-1)
    if blocks.dtype == object or not (
        blocks.size == 0 or np.issubdtype(blocks.dtype, np.integer)
    ):
        raise ConfigurationError(
            f"block ids must be integers, got dtype {blocks.dtype}"
        )
    blocks = blocks.astype(np.int64, copy=False)
    if blocks.size:
        bad = (blocks < 0) | (blocks >= n_blocks)
        if bad.any():
            raise ConfigurationError(
                f"block ids {np.unique(blocks[bad]).tolist()} out of range "
                f"for {n_blocks} blocks"
            )
    return blocks


def flat_segment_indices(
    starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the index ranges ``[starts[i], stops[i])`` into one array.

    Returns ``(indices, offsets)`` where segment ``i`` occupies
    ``indices[offsets[i]:offsets[i+1]]``.  This is the gather step behind
    every batched "selected blocks/rows" kernel: one fancy-indexed load
    replaces a Python loop over ranges.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(stops, dtype=np.int64) - starts
    offsets = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    indices = np.arange(total, dtype=np.int64) + np.repeat(
        starts - offsets[:-1], lengths
    )
    return indices, offsets


def segment_sums(
    values: np.ndarray, offsets: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sum ``values`` over segments ``[offsets[i], offsets[i+1])``.

    Empty segments yield 0 (``np.add.reduceat`` alone would repeat the
    next segment's leading element instead).  ``out``, when given, must be
    an array of length ``offsets.size - 1`` in the pipeline's working
    dtype; it is overwritten and returned, avoiding the allocation on
    planned hot paths.
    """
    n_segments = offsets.size - 1
    if out is None:
        out = np.zeros(max(n_segments, 0), dtype=values.dtype)
    else:
        out[:] = 0.0
    if values.size == 0 or n_segments == 0:
        return out
    lengths = np.diff(offsets)
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty])
    return out


# ----------------------------------------------------------------------
# The kernel-set interface
# ----------------------------------------------------------------------
class KernelSet(abc.ABC):
    """One named implementation family of the ABFT hot-path kernels.

    All methods are pure computations over the arrays passed in, except
    the correction kernel, which scatters into the result in place and
    invokes the tamper hook once per recomputed block (the hook-call
    sequence is part of the contract — fault campaigns replay identically
    under every kernel set).
    """

    #: The set's name (telemetry tags events with it); subclasses override.
    name: str = "abstract"

    # -- weights / encoding ------------------------------------------------
    @abc.abstractmethod
    def linear_weights(self, partition: "BlockPartition") -> np.ndarray:
        """Per-block ramp weights ``1..len(block)`` as a full-length vector."""

    @abc.abstractmethod
    def encode(
        self,
        source: "CsrMatrix",
        partition: "BlockPartition",
        weights: np.ndarray,
    ) -> "CsrMatrix":
        """Build the sparse checksum matrix ``C`` (rows ``c_k = w_k^T A_k``).

        Each ``(block, column)`` entry is summed sequentially in row
        order, so every implementation yields the same bits.
        """

    # -- detection ---------------------------------------------------------
    @abc.abstractmethod
    def result_checksums(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        out: Optional[np.ndarray] = None,
        workspace: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``t2_k = w_k^T r_k`` over all blocks.

        ``out`` (float64, length ``n_blocks``) and ``workspace`` (float64,
        length ``n_rows``) let planned callers reuse buffers; when given
        they are overwritten and ``out`` is returned.
        """

    @abc.abstractmethod
    def result_checksums_for_blocks(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        blocks: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``t2`` restricted to ``blocks`` (the re-verification path).

        ``out`` (float64, length ``blocks.size``) is overwritten and
        returned when given.
        """

    @abc.abstractmethod
    def compare_syndromes(
        self, t1: np.ndarray, t2: np.ndarray, thresholds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(syndrome, exceeded)`` for ``syndrome = t1 - t2``.

        A non-finite syndrome always flags; a non-finite threshold with a
        finite syndrome never does (NaN comparisons are false, matching
        the comparison hardware the paper models).
        """

    # -- correction --------------------------------------------------------
    @abc.abstractmethod
    def correct_blocks(
        self,
        matrix: "CsrMatrix",
        partition: "BlockPartition",
        b: np.ndarray,
        r: np.ndarray,
        blocks: np.ndarray,
        tamper: Tamper = None,
    ) -> Tuple[int, int]:
        """Recompute the result rows of ``blocks`` into ``r`` in place.

        Returns ``(rows_recomputed, nnz_recomputed)``.
        """

    @abc.abstractmethod
    def row_checksums(
        self, csr: "CsrMatrix", rows: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Dot each selected CSR row with ``b`` (the ``t1`` refresh kernel).

        Returns ``(values, nnz_touched)``; empty rows contribute 0.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelSet {self.name}>"
