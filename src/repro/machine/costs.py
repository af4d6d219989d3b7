"""Kernel cost builders: map linear-algebra operations to (work, span).

Every operation the fault-tolerance schemes execute is costed here, in one
place, so the schemes themselves never invent constants.  The builders
return :class:`KernelCost` values (work in FLOPs, span in kernel-level
sequential steps) which the drivers turn into :class:`repro.machine.task.Task`
instances.

Modeling notes (see DESIGN.md, substitution table):

* An inner product of length ``n`` on a GPU is a two-pass tree reduction —
  span ``2 * ceil(log2 n)`` — and its scalar result must round-trip to the
  host before a branch can act on it (``HOST_SYNC_SPAN``).
* The paper's blocked result checksum (t2) is a *segmented* reduction with
  span ``ceil(log2 b_s))`` only, because blocks reduce independently; the
  syndrome and threshold comparison fuse into the same kernel (+2 steps).
  This latency gap is precisely the advantage Section III-B claims over
  deep dense reductions.
* SpMV span is the depth of one row reduction, ``ceil(log2 max_row_nnz)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Sequential steps modeling a device-to-host scalar round trip plus the
#: host-side branch that decides whether correction is needed.
HOST_SYNC_SPAN = 3.0

#: Sequential steps of a *blocking* scalar reduction round trip (cuBLAS-style
#: dot: deep reduction result copied to the host with a device sync).  The
#: related-work dense check pays this once per scalar check; K80-era
#: measurements put the full round trip at tens of microseconds.
BLOCKING_SYNC_SPAN = 30.0

#: Sequential steps of the proposed scheme's asynchronous block-flag copy
#: (a compact flag word, no device-wide sync).
FLAG_SYNC_SPAN = 3.0


def log2ceil(value: float) -> float:
    """``ceil(log2(value))`` with a floor of 1 (any reduction has >= 1 level)."""
    if value <= 2:
        return 1.0
    return float(math.ceil(math.log2(value)))


@dataclass(frozen=True)
class KernelCost:
    """Work/span cost of one kernel."""

    work: float
    span: float

    def __post_init__(self) -> None:
        if self.work < 0 or self.span < 0:
            raise ConfigurationError(f"negative kernel cost: {self}")

    def __add__(self, other: "KernelCost") -> "KernelCost":
        """Fuse two kernels into one (work and span both accumulate)."""
        return KernelCost(self.work + other.work, self.span + other.span)


def spmv_cost(nnz: int, max_row_nnz: int) -> KernelCost:
    """Full sparse matrix-vector product ``r = A b``."""
    return KernelCost(2.0 * nnz, log2ceil(max_row_nnz))


def partial_spmv_cost(nnz_rows: int, max_row_nnz: int) -> KernelCost:
    """SpMV restricted to a row range (the correction kernel)."""
    return KernelCost(2.0 * nnz_rows, log2ceil(max_row_nnz))


def dot_cost(n: int) -> KernelCost:
    """Dense inner product of length ``n`` (two-pass tree reduction)."""
    return KernelCost(2.0 * n, 2.0 * log2ceil(n))


def norm_cost(n: int) -> KernelCost:
    """Euclidean norm ``||v||_2`` (dot plus a scalar sqrt)."""
    cost = dot_cost(n)
    return KernelCost(cost.work + 1.0, cost.span)


def axpy_cost(n: int) -> KernelCost:
    """``y <- a x + y`` (embarrassingly parallel, unit span)."""
    return KernelCost(2.0 * n, 1.0)


def pointwise_cost(n: int) -> KernelCost:
    """Generic elementwise kernel over ``n`` elements (e.g. Jacobi apply)."""
    return KernelCost(float(n), 1.0)


def blocked_checksum_cost(n_rows: int, block_size: int, n_blocks: int) -> KernelCost:
    """Fused t2 / syndrome / threshold-compare kernel of the proposed scheme.

    One kernel computes ``t2_k = w_k^T r_k`` for every block (segmented
    reduction over at most ``block_size`` elements), subtracts ``t1``,
    evaluates the per-block bound and writes the block flags, which copy to
    the host asynchronously (``FLAG_SYNC_SPAN``).

    Span model: ``ceil(log2 b_s)`` reduction levels, plus ``b_s / 32``
    SIMD-serialization steps (large blocks leave too few independent blocks
    to fill the device — the effect that bends Figure 4 upward past
    b_s = 32), plus 2 steps for syndrome/compare, plus the flag copy.
    """
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    work = 2.0 * n_rows + 3.0 * n_blocks
    span = log2ceil(block_size) + block_size / 32.0 + 2.0 + FLAG_SYNC_SPAN
    return KernelCost(work, span)


def checksum_matvec_cost(nnz_checksum: int, max_checksum_row_nnz: int) -> KernelCost:
    """Operand checksum ``t1 = C b`` (an SpMV on the sparse checksum matrix)."""
    return spmv_cost(nnz_checksum, max_checksum_row_nnz)


def dense_check_cost(n: int) -> KernelCost:
    """Result side of the dense check: ``w^T r`` then a blocking host sync.

    The related-work scheme ([30], [31]) reduces the *whole* result vector
    with a dense weight vector; the scalar is consumed by a host-side
    threshold comparison, which forces a blocking device round trip per
    check (cuBLAS dot semantics).
    """
    cost = dot_cost(n)
    return KernelCost(cost.work, cost.span + BLOCKING_SYNC_SPAN)


def probe_cost(n: int) -> KernelCost:
    """One bisection-localization probe (``c_node b`` plus host compare).

    During localization the host is already spinning in a synchronous
    descent loop, so consecutive probes pipeline: each pays the reduction
    plus a light host round trip rather than a full blocking sync.
    """
    cost = dot_cost(n)
    return KernelCost(cost.work, cost.span + HOST_SYNC_SPAN)


def blocking_norm_cost(n: int) -> KernelCost:
    """Operand norm computed for a *host-side* bound (dense-check baseline).

    Same reduction as :func:`norm_cost` plus the blocking scalar round trip
    — the ``tau = ||b||_2`` bound of [30] is evaluated on the host.
    """
    cost = norm_cost(n)
    return KernelCost(cost.work, cost.span + BLOCKING_SYNC_SPAN)


def checkpoint_store_cost(n_state: int) -> KernelCost:
    """Copy solver state (``n_state`` doubles) to checkpoint storage.

    Modeled as a bandwidth-style pass over the state: one read + one write
    per element, unit span.
    """
    return KernelCost(2.0 * n_state, 1.0)


def checkpoint_restore_cost(n_state: int) -> KernelCost:
    """Restore solver state from checkpoint storage."""
    return checkpoint_store_cost(n_state)
