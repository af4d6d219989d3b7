"""Named, registry-dispatched implementations of the ABFT hot-path kernels.

Registry entries are keyed ``(sparse_format, impl)``.  Two impls ship
built in for each of the ``"csr"`` and ``"bsr"`` storage formats:

* ``"naive"`` — the reference per-block Python loops;
* ``"vectorized"`` — batched segment-sum versions of the same kernels
  (the default).

The BSR sets' recompute kernels replay the format's own multiply
pipeline (see :mod:`repro.kernels.bsr`).  Threaded execution is not a
kernel set: a planned multiply fans its shards out through the
``"threads"`` or ``"processes"`` backend of :mod:`repro.perf.backends`.

Selection: the impl axis via ``AbftConfig(kernel="...")`` (or the
``kernel=`` argument the core entry points accept), overridden
process-wide by the ``REPRO_KERNELS`` environment variable; the format
axis via ``AbftConfig(sparse_format="...")`` / ``REPRO_FORMAT``, resolved
by :mod:`repro.sparse.formats` and passed as ``sparse_format`` by
format-aware callers.  ``tests/kernels`` differentially tests every
registered pair over a corpus of edge-case matrices.
"""

from repro.kernels.base import (
    BUILTIN_KERNEL_KEYS,
    BUILTIN_KERNELS,
    DEFAULT_KERNEL,
    DEFAULT_KERNEL_FORMAT,
    KERNEL_ENV_VAR,
    KernelSet,
    available_kernel_keys,
    available_kernels,
    flat_segment_indices,
    get_kernels,
    register_kernels,
    resolve_kernels,
    segment_sums,
    unregister_kernels,
    validate_blocks,
)
from repro.kernels.bsr import BsrNaiveKernels, BsrVectorizedKernels
from repro.kernels.naive import NaiveKernels
from repro.kernels.vectorized import VectorizedKernels

for _impl in (NaiveKernels, VectorizedKernels, BsrNaiveKernels, BsrVectorizedKernels):
    register_kernels(_impl())

__all__ = [
    "BUILTIN_KERNELS",
    "BUILTIN_KERNEL_KEYS",
    "DEFAULT_KERNEL",
    "DEFAULT_KERNEL_FORMAT",
    "KERNEL_ENV_VAR",
    "KernelSet",
    "NaiveKernels",
    "VectorizedKernels",
    "BsrNaiveKernels",
    "BsrVectorizedKernels",
    "available_kernels",
    "available_kernel_keys",
    "get_kernels",
    "register_kernels",
    "unregister_kernels",
    "resolve_kernels",
    "flat_segment_indices",
    "segment_sums",
    "validate_blocks",
]
