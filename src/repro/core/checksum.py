"""Sparse checksum matrix construction (Sections III-B and III-D).

Each row block ``A_k`` of the input matrix is encoded with a weight vector
``w_k`` into a *sparse* column-checksum row ``c_k = w_k^T A_k``; stacking
the ``c_k`` yields the checksum matrix ``C`` (one row per block, entries
only in the block's non-empty columns — Figure 2).  ``C`` inherits the
sparsity of ``A``, which is what makes the operand checksum ``t1 = C b``
cheap compared to a dense checksum vector.

The construction itself follows Figure 3: a structure pass derives ``C``'s
sparsity pattern from ``A``'s, then a numeric pass accumulates the weighted
column sums.  The numeric kernels come from :mod:`repro.kernels`: the
encoder marks each block's non-empty columns inside the block's column
envelope for the structure pass and sums the weighted entries into the
marked cells in row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.kernels
from repro.errors import ConfigurationError
from repro.core.blocking import BlockPartition
from repro.kernels.base import ACCUMULATION_DTYPE, KernelSet
from repro.obs import resolve_telemetry
from repro.machine import KernelCost, log2ceil
from repro.sparse.csr import CsrMatrix


def make_weights(kind: str, partition: BlockPartition) -> np.ndarray:
    """Full-length weight vector ``w`` with ``w[i]`` = weight of row i.

    ``"ones"`` is the paper's choice (checksums are plain column sums);
    ``"linear"`` assigns 1..len(block) within each block, an extension that
    makes single-row errors identifiable inside a block; ``"random"`` draws
    deterministic weights from [0.5, 1.5], which defeats the classic ABFT
    blind spot of exactly-cancelling multi-errors (two corruptions summing
    to zero no longer cancel in the weighted checksum).
    """
    if kind == "ones":
        # Weights live on the accumulation side of the pipeline: float64
        # for either storage dtype, so the checksum matrix (and therefore
        # t1/t2) accumulates wide even for narrow storage.
        return np.ones(partition.n_rows, dtype=ACCUMULATION_DTYPE)
    if kind == "linear":
        return repro.kernels.KERNELS.linear_weights(partition)
    if kind == "random":
        rng = np.random.default_rng(0x5EED)
        return rng.uniform(0.5, 1.5, size=partition.n_rows)
    raise ConfigurationError(f"unknown weight scheme {kind!r}")


@dataclass(frozen=True)
class ChecksumMatrix:
    """The sparse checksum matrix ``C`` plus the per-block statistics the
    rounding-error bound needs.

    Attributes:
        matrix: ``C`` as CSR, shape ``(n_blocks, n_cols)``.
        partition: the row-block partition of the source matrix.
        weights: the full-length weight vector used for encoding.
        nonempty_columns: ``n_k`` per block — stored columns of ``C``'s row
            k, i.e. columns of ``A_k`` with at least one entry.
        row_norm_sums: per block, ``sum of ||a_i||_2`` over the block's rows.
        checksum_norms: per block, ``||c_k||_2``.
        setup_cost: kernel cost of building ``C`` (one-time preprocessing;
            paper Section III-E notes it amortizes over reuse).
        kernels: the kernel set the checksum was built with; checksum
            evaluations run on the same set.
    """

    matrix: CsrMatrix
    partition: BlockPartition
    weights: np.ndarray
    nonempty_columns: np.ndarray
    row_norm_sums: np.ndarray
    checksum_norms: np.ndarray
    setup_cost: KernelCost
    source_nnz: int
    kernels: KernelSet

    @classmethod
    def build(
        cls,
        source: CsrMatrix,
        block_size: int,
        weight_kind: str = "ones",
        kernels: Optional[KernelSet] = None,
        telemetry: object = None,
    ) -> "ChecksumMatrix":
        """Encode ``source`` into its checksum matrix.

        Args:
            source: the input matrix ``A``.
            block_size: rows per block (b_s).
            weight_kind: weight-vector scheme (see :func:`make_weights`).
            kernels: kernel set executing the encoding and later checksum
                evaluations (None = :data:`repro.kernels.KERNELS`).
            telemetry: :mod:`repro.obs` selection; the build is traced as
                a ``checksum.build`` span when enabled.
        """
        tel = resolve_telemetry(telemetry)
        kernels = tel.wrap_kernels(repro.kernels.KERNELS if kernels is None else kernels)
        with tel.span(
            "checksum.build", rows=source.n_rows, nnz=source.nnz,
            block_size=block_size, kernel=kernels.name,
        ):
            partition = BlockPartition(source.n_rows, block_size)
            weights = make_weights(weight_kind, partition)
            checksum = kernels.encode(source, partition, weights)

            nonempty = checksum.row_lengths()
            row_norms = source.row_norms()
            starts = partition.block_starts()
            row_norm_sums = np.add.reduceat(row_norms, starts[:-1]) if partition.n_blocks else (
                np.empty(0)
            )
            # reduceat quirk: a trailing singleton start equal to len-1 is fine
            # because every block is non-empty by construction.
            checksum_norms = checksum.row_norms()

            # Figure 3: a structure pass over A's entries plus a weighted
            # accumulation pass; span is the depth of the per-column reduction.
            setup_cost = KernelCost(
                work=3.0 * source.nnz,
                span=log2ceil(block_size) + 2.0,
            )
        return cls(
            matrix=checksum,
            partition=partition,
            weights=weights,
            nonempty_columns=nonempty.astype(np.int64),
            row_norm_sums=np.asarray(row_norm_sums, dtype=ACCUMULATION_DTYPE),
            checksum_norms=checksum_norms,
            setup_cost=setup_cost,
            source_nnz=source.nnz,
            kernels=kernels,
        )

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    @property
    def nnz(self) -> int:
        """Stored entries of ``C`` — the work driver of ``t1 = C b``."""
        return self.matrix.nnz

    @property
    def sparsity_gain(self) -> float:
        """nnz(C) / nnz(A) — how much sparsity the encoding preserved.

        The smaller this ratio, the cheaper the operand checksum relative
        to re-running the SpMV (block size 1 gives exactly 1.0).
        """
        return self.nnz / max(1, self.source_nnz)

    def operand_checksums(
        self,
        b: np.ndarray,
        out: np.ndarray | None = None,
        workspace: np.ndarray | None = None,
    ) -> np.ndarray:
        """t1 = C b (Figure 1, step 1, checksum stream).

        ``out`` (length ``n_blocks``) and ``workspace`` (length ``nnz`` of
        ``C``) are optional reusable buffers, as in
        :meth:`repro.sparse.csr.CsrMatrix.matvec`.
        """
        return self.matrix.matvec(b, out=out, workspace=workspace)

    def result_checksums(
        self,
        r: np.ndarray,
        out: np.ndarray | None = None,
        workspace: np.ndarray | None = None,
    ) -> np.ndarray:
        """t2_k = w_k^T r_k: segmented weighted sums of the result vector."""
        return self.kernels.result_checksums(
            self.weights, r, self.partition, out=out, workspace=workspace
        )

    def result_checksums_for_blocks(
        self,
        r: np.ndarray,
        blocks: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Recompute t2 for selected blocks only (re-verification path).

        Raises:
            ConfigurationError: if any block id is negative or >= n_blocks.
        """
        return self.kernels.result_checksums_for_blocks(
            self.weights, r, self.partition, blocks, out=out
        )
