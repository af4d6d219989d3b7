"""The ABFT hot-path kernels.

One kernel set runs every stage: :class:`VectorizedKernels`, batched
segment-sum versions of the per-block loops, held in :data:`KERNELS`.
Every kernel that touches a matrix works on CSR: the operator's CSR
matrix or its CSR checksum matrix, whatever storage format a plan
multiplies with.  Threaded execution is not a kernel set: a planned
multiply fans its shards out through the ``"threads"`` backend of
:mod:`repro.perf.backends`.

Detectors, checksum builds and baselines read :data:`KERNELS` when they
are constructed and keep the instance they read.  ``tests/kernels``
differentially tests the set against a per-block reference oracle over
a corpus of edge-case matrices; the test suite's ``--kernels=naive``
option installs that oracle in place of :data:`KERNELS`.
"""

from repro.kernels.base import (
    DEFAULT_KERNEL,
    KernelSet,
    flat_segment_indices,
    segment_sums,
    validate_blocks,
)
from repro.kernels.vectorized import VectorizedKernels

#: The kernel set every ABFT stage runs.
KERNELS: KernelSet = VectorizedKernels()

__all__ = [
    "DEFAULT_KERNEL",
    "KERNELS",
    "KernelSet",
    "VectorizedKernels",
    "flat_segment_indices",
    "segment_sums",
    "validate_blocks",
]
