"""Named, registry-dispatched implementations of the ABFT hot-path kernels.

Two kernel sets ship built in:

* ``"naive"`` — the reference per-block Python loops;
* ``"vectorized"`` — batched segment-sum versions of the same kernels
  (the default).

Both work on CSR: every kernel that touches a matrix takes the operator's
CSR matrix or its CSR checksum matrix, whatever storage format a plan
multiplies with.  Threaded execution is not a kernel set: a planned
multiply fans its shards out through the ``"threads"`` backend of
:mod:`repro.perf.backends`.

Selection: ``AbftConfig(kernel="...")`` (or the ``kernel=`` argument the
core entry points accept), overridden process-wide by the
``REPRO_KERNELS`` environment variable.  ``tests/kernels`` differentially
tests every registered pair over a corpus of edge-case matrices.
"""

from repro.kernels.base import (
    BUILTIN_KERNELS,
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    KernelSet,
    available_kernels,
    flat_segment_indices,
    get_kernels,
    register_kernels,
    resolve_kernels,
    segment_sums,
    unregister_kernels,
    validate_blocks,
)
from repro.kernels.naive import NaiveKernels
from repro.kernels.vectorized import VectorizedKernels

for _impl in (NaiveKernels, VectorizedKernels):
    register_kernels(_impl())

__all__ = [
    "BUILTIN_KERNELS",
    "DEFAULT_KERNEL",
    "KERNEL_ENV_VAR",
    "KernelSet",
    "NaiveKernels",
    "VectorizedKernels",
    "available_kernels",
    "get_kernels",
    "register_kernels",
    "unregister_kernels",
    "resolve_kernels",
    "flat_segment_indices",
    "segment_sums",
    "validate_blocks",
]
