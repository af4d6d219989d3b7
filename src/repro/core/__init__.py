"""Core contribution: block-ABFT for sparse matrix operations (DSN 2016).

Public surface:

* :class:`AbftConfig` — scheme parameters (block size, bound, weights);
* :class:`ChecksumMatrix` — the sparse checksum encoding (Figures 2-3);
* :class:`BlockAbftDetector` — detect *and locate* errors per block;
* :class:`FaultTolerantSpMV` — the end-to-end protected multiply
  (Figure 1) with partial recomputation and re-verification;
* the rounding-error bounds of Section III-C, whose ``eps_M`` is
  :func:`unit_roundoff` of the matrix's storage dtype (float64 or
  float32; checksums accumulate in float64 either way).
"""

from repro.core.blocking import BlockPartition
from repro.core.calibration import EmpiricalBound
from repro.core.bounds import (
    Bound,
    DenseAnalyticalBound,
    NormBound,
    SparseBlockBound,
    make_bound,
    unit_roundoff,
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
    ReportHook,
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
    "unit_roundoff",
    "BlockAbftDetector",
    "DetectionReport",
    "ReportHook",
    "CorrectionOutcome",
    "TamperHook",
    "correct_blocks",
    "FaultTolerantSpMV",
    "plain_spmv",
]
