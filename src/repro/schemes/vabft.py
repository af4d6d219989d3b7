"""Variance-adaptive block-ABFT (``vabft``) — an extension scheme.

The paper's analytical bound (Section III-C) multiplies worst-case
norm products by the storage dtype's unit roundoff.  In double precision
the worst case is tolerable; in float32 the ``(n_k + 2 b_s - 2)``
factors make the bound *orders of magnitude* looser than the rounding
noise an actual multiply produces — random rounding errors grow like
``sqrt(n_k)``, not ``n_k`` — so small injected errors slide underneath
it undetected.

``vabft`` replaces the worst-case constant with a *measured* one, learned
online: a per-block Welford estimator tracks the mean and variance of the
scale-free clean-syndrome statistic ``|t1_k - t2_k| / beta`` and sets the
threshold

    tau_k(beta) = min(analytical_k,
                      max(floor_k, mean_k + k_sigma * std_k)) * beta

once a block has seen enough clean evaluations (``min_samples``); blocks
still warming up fall back to the analytical bound, so the scheme is
never *less* safe than the paper's.  The estimator feeds on the
detector's report hook — the same evaluation stream that drives the
``abft.syndrome_margin`` histogram and the near-miss counter, but
observing every clean block rather than only the near-miss tail — plus
an optional seeded warmup (clean synthetic multiplies at construction,
mirroring :class:`repro.core.calibration.EmpiricalBound`).

The scheme is the table entry ``"vabft"`` and is exercised by the same golden,
differential and campaign suites as every other builtin.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bounds import Bound
from repro.core.config import AbftConfig
from repro.core.detector import DetectionReport
from repro.core.protected import FaultTolerantSpMV
from repro.errors import ConfigurationError
from repro.kernels.base import ACCUMULATION_DTYPE
from repro.machine import Machine
from repro.sparse.csr import CsrMatrix

#: Threshold distance above the clean-syndrome mean, in standard
#: deviations.  Six sigma keeps the false-positive mass negligible for
#: anything remotely Gaussian while staying far tighter than the
#: worst-case analytical constants on narrow dtypes.
DEFAULT_K_SIGMA = 6.0

#: Clean observations a block needs before its adaptive threshold
#: activates; below this the analytical bound applies unchanged.
DEFAULT_MIN_SAMPLES = 4

#: Clean synthetic multiplies run at construction to seed the estimator.
DEFAULT_WARMUP = 16

#: Seed of the deterministic warmup operand stream.
WARMUP_SEED = 0x5AB1E


class SyndromeVarianceEstimator:
    """Per-block online mean/variance of the clean syndrome statistic.

    Observations are ``|syndrome| / beta`` — scale-free for a linear
    operator, so samples taken at different operand norms pool cleanly
    (the same normalization :class:`repro.core.calibration.EmpiricalBound`
    uses).  Welford's algorithm runs vectorized across blocks; partial
    updates (a subset of blocks) are supported for re-verification
    reports.
    """

    def __init__(self, n_blocks: int) -> None:
        if n_blocks < 0:
            raise ConfigurationError(f"n_blocks must be >= 0, got {n_blocks}")
        self.n_blocks = n_blocks
        self.counts = np.zeros(n_blocks, dtype=np.int64)
        self.means = np.zeros(n_blocks, dtype=ACCUMULATION_DTYPE)
        self._m2 = np.zeros(n_blocks, dtype=ACCUMULATION_DTYPE)

    def update(
        self, observations: np.ndarray, blocks: Optional[np.ndarray] = None
    ) -> None:
        """Fold one observation per block into the running statistics.

        ``blocks`` selects the rows being updated (None = all blocks, in
        order).  Non-finite observations are ignored — a corrupted beta
        or an inf syndrome must not poison the noise model.
        """
        observations = np.asarray(observations, dtype=ACCUMULATION_DTYPE)
        finite = np.isfinite(observations)
        if blocks is None:
            target = np.flatnonzero(finite)
            values = observations[finite]
        else:
            blocks = np.asarray(blocks, dtype=np.int64)
            target = blocks[finite]
            values = observations[finite]
        if target.size == 0:
            return
        counts = self.counts[target] + 1
        delta = values - self.means[target]
        means = self.means[target] + delta / counts
        self.counts[target] = counts
        self.means[target] = means
        self._m2[target] += delta * (values - means)

    def std(self, blocks: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-block standard deviation (0 until two samples arrive)."""
        counts = self.counts if blocks is None else self.counts[blocks]
        m2 = self._m2 if blocks is None else self._m2[blocks]
        out = np.zeros(counts.shape, dtype=ACCUMULATION_DTYPE)
        ready = counts >= 2
        np.divide(m2, counts, out=out, where=ready)
        return np.sqrt(out, out=out)

    def observe_report(self, report: DetectionReport, exceeded: np.ndarray) -> None:
        """Detector report hook: learn from the clean blocks of one check.

        Flagged blocks are excluded — their syndromes carry the error, not
        the rounding noise — and a zero or non-finite beta skips the whole
        report (the statistic is undefined there).
        """
        beta = report.beta
        if not np.isfinite(beta) or beta <= 0.0:
            return
        clean = ~np.asarray(exceeded, dtype=bool)
        if not clean.any():
            return
        with np.errstate(invalid="ignore", over="ignore"):
            observations = np.abs(report.syndrome[clean]) / beta
        self.update(observations, blocks=report.blocks[clean])


class VarianceAdaptiveBound:
    """Detector bound blending learned thresholds with the analytical one.

    Satisfies the :class:`repro.core.bounds.Bound` protocol.  For blocks
    with at least ``min_samples`` clean observations the threshold is
    ``min(analytical, max(floor, mean + k_sigma * std)) * beta`` — never
    looser than the paper's bound, and floored so an all-zero syndrome
    history cannot produce a zero threshold.  Blocks still warming up use
    the analytical threshold unchanged.

    Deliberately exposes **no** ``beta_coefficients``: the thresholds
    drift as the estimator learns, so planned execution
    (:class:`repro.perf.plan.ProtectedPlan`) evaluates them per call via
    its bound fallback instead of caching stale coefficients.
    """

    def __init__(
        self,
        estimator: SyndromeVarianceEstimator,
        analytical: Bound,
        floor: np.ndarray,
        k_sigma: float = DEFAULT_K_SIGMA,
        min_samples: int = DEFAULT_MIN_SAMPLES,
    ) -> None:
        if k_sigma <= 0:
            raise ConfigurationError(f"k_sigma must be positive, got {k_sigma}")
        if min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {min_samples}"
            )
        self.estimator = estimator
        self.analytical = analytical
        self.floor = np.asarray(floor, dtype=ACCUMULATION_DTYPE)
        self.k_sigma = float(k_sigma)
        self.min_samples = int(min_samples)

    def adaptive_constants(
        self, blocks: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-block learned ``tau/beta`` factors (no analytical blend)."""
        estimator = self.estimator
        means = estimator.means if blocks is None else estimator.means[blocks]
        floor = self.floor if blocks is None else self.floor[blocks]
        learned = means + self.k_sigma * estimator.std(blocks)
        return np.maximum(learned, floor)

    def thresholds(
        self, beta: float, blocks: Optional[np.ndarray] = None
    ) -> np.ndarray:
        analytical = self.analytical.thresholds(beta, blocks)
        counts = (
            self.estimator.counts
            if blocks is None
            else self.estimator.counts[blocks]
        )
        ready = counts >= self.min_samples
        if not ready.any():
            return analytical
        with np.errstate(invalid="ignore", over="ignore"):
            adaptive = self.adaptive_constants(blocks) * beta
            blended = np.minimum(analytical, adaptive)
        return np.where(ready, blended, analytical)


class VarianceAdaptiveSpMV(FaultTolerantSpMV):
    """Block-ABFT with online variance-adaptive thresholds (``vabft``).

    Construction builds the ordinary detector (checksum matrix plus the
    analytical bound in the storage dtype's unit roundoff), then swaps in a
    :class:`VarianceAdaptiveBound` and wires the detector's report hook
    to the estimator.  ``warmup`` clean synthetic multiplies seed the
    noise model so adaptive thresholds are live from the first real call;
    the warmup runs through the checksum machinery only (no full SpMV
    result is retained) and its operand stream is deterministic.

    Args:
        matrix: the sparse input matrix ``A``.
        block_size / config / machine / telemetry: as for
            :class:`repro.core.protected.FaultTolerantSpMV`.
        k_sigma: threshold distance above the clean-syndrome mean.
        min_samples: clean observations before a block's adaptive
            threshold activates.
        warmup: seeded clean multiplies at construction (0 disables).
    """

    name = "vabft"

    def __init__(
        self,
        matrix: CsrMatrix,
        block_size: Optional[int] = None,
        config: Optional[AbftConfig] = None,
        machine: Optional[Machine] = None,
        telemetry: object = None,
        k_sigma: float = DEFAULT_K_SIGMA,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        warmup: int = DEFAULT_WARMUP,
    ) -> None:
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        super().__init__(
            matrix,
            block_size=block_size,
            config=config,
            machine=machine,
            telemetry=telemetry,
        )
        detector = self.detector
        checksum = detector.checksum
        self.estimator = SyndromeVarianceEstimator(detector.n_blocks)
        # Floor: a few ulps of the block's checksum magnitude in the
        # storage dtype's epsilon — the same guard EmpiricalBound uses
        # against brittle exact-zero thresholds.
        floor = detector.epsilon * np.maximum(checksum.checksum_norms, 1.0)
        self.adaptive_bound = VarianceAdaptiveBound(
            self.estimator,
            detector.bound,
            floor,
            k_sigma=k_sigma,
            min_samples=min_samples,
        )
        detector.bound = self.adaptive_bound
        detector.report_hook = self.estimator.observe_report
        self.warmup = int(warmup)
        if self.warmup:
            self._run_warmup(self.warmup)

    def _run_warmup(self, samples: int) -> None:
        """Seed the estimator with clean synthetic syndrome observations.

        Mirrors :meth:`repro.core.calibration.EmpiricalBound.calibrate`:
        deterministic operands spanning several magnitude decades, one
        checksum-pair evaluation each.  Statistics flow through
        :meth:`SyndromeVarianceEstimator.update` directly rather than the
        report hook so warmup never touches detection telemetry.
        """
        detector = self.detector
        matrix = detector.matrix
        checksum = detector.checksum
        rng = np.random.default_rng(WARMUP_SEED)
        with detector.telemetry.span("vabft.warmup", samples=samples):
            for _ in range(samples):
                b = np.asarray(
                    rng.standard_normal(matrix.n_cols)
                    * 10.0 ** rng.integers(-3, 4),
                    dtype=matrix.data.dtype,
                )
                beta = detector.operand_norm(b)
                # reprolint: disable=ABFT003 -- skip degenerate samples: only
                # an identically zero operand makes |s|/beta undefined
                if not np.isfinite(beta) or beta == 0.0:
                    continue
                r = matrix.matvec(b)
                with np.errstate(invalid="ignore", over="ignore"):
                    syndrome = checksum.operand_checksums(b) - checksum.result_checksums(r)
                    self.estimator.update(np.abs(syndrome) / beta)
