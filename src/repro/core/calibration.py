"""Empirical rounding-error bound calibration (extension).

Related work either asks the user for thresholds ([26] — "requires both
deep knowledge of the input data and re-calibration for each new problem
set") or derives analytical bounds as the paper does.  A third option the
paper's framework invites: *measure* the rounding error.  Sampling a few
dozen error-free SpMVs on representative operands yields, per block, the
largest observed ``|syndrome| / beta``; scaled by a safety factor this is
a data-driven bound that adapts to the actual matrix values instead of
worst-case norms.

The calibrated object is a drop-in for the analytical bounds (same
``thresholds(beta, blocks)`` API), so :class:`repro.core.BlockAbftDetector`
accepts it via its ``bound_override`` argument.  The bound ablation bench
compares all four families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounds import unit_roundoff
from repro.core.checksum import ChecksumMatrix
from repro.errors import ConfigurationError
from repro.kernels.base import ACCUMULATION_DTYPE
from repro.sparse.csr import CsrMatrix

#: Default multiplier on the largest observed rounding syndrome.  Sampling
#: sees a finite tail, so headroom is required to avoid false positives on
#: unseen operands.
DEFAULT_SAFETY_FACTOR = 8.0


@dataclass(frozen=True)
class EmpiricalBound:
    """Per-block bound calibrated from error-free executions.

    Attributes:
        constants: per-block ``safety * max observed |syndrome| / beta``.
        samples: number of calibration executions used.
        safety: the applied safety factor.
    """

    constants: np.ndarray
    samples: int
    safety: float

    @classmethod
    def calibrate(
        cls,
        matrix: CsrMatrix,
        block_size: int = 32,
        samples: int = 50,
        seed: int = 0,
        safety: float = DEFAULT_SAFETY_FACTOR,
        weight_kind: str = "ones",
    ) -> "EmpiricalBound":
        """Run ``samples`` clean SpMVs and record per-block syndrome peaks.

        Operands are drawn over several magnitude decades so the calibration
        covers the scale range the bound will face (``|s|/beta`` is scale
        free for linear operators, but the exponent spread exercises
        different rounding patterns).  Blocks that never exceed zero are
        floored in the unit roundoff of the matrix's storage dtype.

        Raises:
            ConfigurationError: on non-positive samples/safety.
        """
        if samples < 1:
            raise ConfigurationError(f"samples must be >= 1, got {samples}")
        if safety <= 0:
            raise ConfigurationError(f"safety must be positive, got {safety}")
        checksum = ChecksumMatrix.build(matrix, block_size, weight_kind)
        rng = np.random.default_rng(seed)
        peaks = np.zeros(checksum.n_blocks, dtype=ACCUMULATION_DTYPE)
        for _ in range(samples):
            b = rng.standard_normal(matrix.n_cols) * 10.0 ** rng.integers(-3, 4)
            beta = float(np.linalg.norm(b))
            # reprolint: disable=ABFT003 -- skip degenerate samples: only an
            # identically zero operand makes |s|/beta undefined
            if beta == 0.0:
                continue
            r = matrix.matvec(b)
            syndrome = np.abs(checksum.operand_checksums(b) - checksum.result_checksums(r))
            np.maximum(peaks, syndrome / beta, out=peaks)
        # Blocks whose syndrome never rose above zero still need a non-zero
        # threshold (exact-zero comparisons are brittle): floor at a few ulps
        # of the block's checksum magnitude, in the storage dtype's epsilon.
        floor = unit_roundoff(matrix.dtype) * np.maximum(checksum.checksum_norms, 1.0)
        constants = safety * np.maximum(peaks, floor)
        return cls(constants=constants, samples=samples, safety=safety)

    def thresholds(self, beta: float, blocks: np.ndarray | None = None) -> np.ndarray:
        """Per-block thresholds ``tau_k(beta)`` (same API as the analytical
        bounds)."""
        constants = self.constants if blocks is None else self.constants[blocks]
        return constants * beta
