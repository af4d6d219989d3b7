"""repro.perf — planned, shard-parallel execution for the protected SpMV.

The paper's overhead argument assumes the detection stream rides along a
well-executed SpMV; this package makes the *execution* side real:

* :func:`balanced_cuts` / :func:`shard_rows` / :func:`shard_blocks` —
  nnz-balanced (not row-count-balanced) contiguous shard boundaries,
  optionally aligned to checksum-block starts so a block never straddles
  a shard;
* :class:`SpmvPlan` — a reusable execution plan for ``y = A b`` on a
  fixed matrix: per-shard index/scratch views are precomputed once and
  every :meth:`SpmvPlan.execute` reuses them, performing no new array
  allocations;
* :class:`ProtectedPlan` — the planned protected multiply: for a fixed
  ``(matrix, partition, checksum)`` triple the steady-state loop (SpMV,
  operand/result checksums, bound, syndrome compare) runs entirely in
  preallocated buffers, with multi-shard clean multiplies fusing each
  shard's multiply with its own detection;
* two *execution backends* (:mod:`repro.perf.backends`): ``"serial"``
  runs a plan in the calling thread, and a multi-shard ``"threads"``
  plan submits its fused shard tasks to a shared thread pool.  Selected
  via ``AbftConfig(parallel=...)``, the ``REPRO_PARALLEL`` environment
  variable, or an explicit ``ProtectedPlan(parallel=...)`` argument.
  The resolved backend also sets the default shard count: one for
  ``"serial"``, one per worker for ``"threads"``.

Plans are built via :meth:`repro.core.FaultTolerantSpMV.planned`, which
caches one plan per operator (``plan.cache_hits`` telemetry counter).
"""

from repro.perf.backends import (
    BACKEND_ENV_VAR,
    BUILTIN_BACKENDS,
    available_backends,
    canonical_backend_name,
    resolve_backend_name,
)
from repro.perf.plan import FusedShardBuffers, ProtectedPlan, SpmvPlan
from repro.perf.sharding import balanced_cuts, shard_blocks, shard_rows

__all__ = [
    "SpmvPlan",
    "ProtectedPlan",
    "FusedShardBuffers",
    "balanced_cuts",
    "shard_blocks",
    "shard_rows",
    "BACKEND_ENV_VAR",
    "BUILTIN_BACKENDS",
    "available_backends",
    "canonical_backend_name",
    "resolve_backend_name",
]
