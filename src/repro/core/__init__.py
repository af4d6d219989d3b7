"""Core contribution: block-ABFT for sparse matrix operations (DSN 2016).

Public surface:

* :class:`AbftConfig` — scheme parameters (block size, bound, weights);
* :class:`ChecksumMatrix` — the sparse checksum encoding (Figures 2-3);
* :class:`BlockAbftDetector` — detect *and locate* errors per block;
* :class:`FaultTolerantSpMV` — the end-to-end protected multiply
  (Figure 1) with partial recomputation and re-verification;
* the rounding-error bounds of Section III-C.
"""

from repro.core.blocking import BlockPartition
from repro.core.calibration import EmpiricalBound
from repro.core.bounds import (
    Bound,
    DenseAnalyticalBound,
    NormBound,
    SparseBlockBound,
    make_bound,
)
from repro.core.checksum import ChecksumMatrix, make_weights
from repro.core.config import (
    BOUND_KINDS,
    DEFAULT_BLOCK_SIZE,
    MACHINE_EPSILON,
    WEIGHT_KINDS,
    AbftConfig,
)
from repro.core.corrector import CorrectionOutcome, TamperHook, correct_blocks
from repro.core.detector import (
    BlockAbftDetector,
    DetectionReport,
    NearMiss,
    NearMissHook,
    ReportHook,
)
from repro.core.dtypes import (
    BUILTIN_DTYPES,
    DEFAULT_DTYPE,
    DTYPE_ENV_VAR,
    DtypePolicy,
    available_dtypes,
    canonical_dtype_name,
    coerce_array,
    get_dtype_policy,
    register_dtype_policy,
    resolve_dtype_name,
    resolve_dtype_policy,
    unregister_dtype_policy,
)
from repro.core.protected import FaultTolerantSpMV, plain_spmv

__all__ = [
    "AbftConfig",
    "EmpiricalBound",
    "MACHINE_EPSILON",
    "DEFAULT_BLOCK_SIZE",
    "BOUND_KINDS",
    "WEIGHT_KINDS",
    "BlockPartition",
    "ChecksumMatrix",
    "make_weights",
    "Bound",
    "SparseBlockBound",
    "DenseAnalyticalBound",
    "NormBound",
    "make_bound",
    "BlockAbftDetector",
    "DetectionReport",
    "NearMiss",
    "NearMissHook",
    "ReportHook",
    "BUILTIN_DTYPES",
    "DEFAULT_DTYPE",
    "DTYPE_ENV_VAR",
    "DtypePolicy",
    "available_dtypes",
    "canonical_dtype_name",
    "coerce_array",
    "get_dtype_policy",
    "register_dtype_policy",
    "resolve_dtype_name",
    "resolve_dtype_policy",
    "unregister_dtype_policy",
    "CorrectionOutcome",
    "TamperHook",
    "correct_blocks",
    "FaultTolerantSpMV",
    "plain_spmv",
]
