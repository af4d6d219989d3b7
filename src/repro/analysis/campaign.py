"""Error-injection campaigns for the SpMV experiments (paper Section V).

Two campaign kinds:

* **coverage** (Figure 7): per trial, one σ-significant burst corrupts a
  random result element; the detector's verdict is scored against ground
  truth.  Both the proposed block detector and the dense-check baseline run
  through the same trials.
* **correction** (Figure 6): per trial, an injected error triggers the
  full detect-locate-correct pipeline of each scheme, and the simulated
  runtime is recorded.

Schemes are resolved by name through the :mod:`repro.schemes` table,
so any built-in scheme can run either campaign.

The paper runs 100 000 trials per matrix; the statistics here stabilize at
a few hundred, which is the default (`trials` is a knob everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis.metrics import ConfusionCounts
from repro.core.config import AbftConfig
from repro.core.protected import plain_spmv
from repro.errors import ConfigurationError, InjectionError
from repro.faults.injector import FaultInjector
from repro.machine import ExecutionMeter, Machine
from repro.schemes import make_scheme
from repro.sparse.csr import CsrMatrix


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of one coverage campaign."""

    counts: ConfusionCounts
    trials: int
    sigma: float
    detector: str

    @property
    def f1(self) -> float:
        return self.counts.f1


def _ranges_containing(
    ranges: Tuple[Tuple[int, int], ...], index: int
) -> Tuple[bool, int]:
    """(is the index covered by any range, number of ranges missing it)."""
    hit = False
    misses = 0
    for start, stop in ranges:
        if start <= index < stop:
            hit = True
        else:
            misses += 1
    return hit, misses


def run_coverage_campaign(
    matrix: CsrMatrix,
    detector: str,
    trials: int = 300,
    sigma: float = 1e-12,
    seed: int = 0,
    block_size: int = 32,
    bound: str = "sparse",
) -> CoverageResult:
    """Score a scheme's error coverage under σ-significant injections.

    Per trial: draw a fresh operand, compute the clean SpMV, first evaluate
    the scheme's verdict on the *clean* result (any implicated row range is
    a false positive), then corrupt one random element with a σ-significant
    burst and re-evaluate (a range covering the corrupted location is a
    true positive; ranges elsewhere are false positives; silence is a false
    negative).

    ``detector`` is a scheme name (``"abft"``,
    ``"dense_check"``, ...); ``bound="empirical"``
    calibrates an :class:`~repro.core.calibration.EmpiricalBound` for the
    block scheme instead of an analytical bound family.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    injector = FaultInjector(rng=rng)
    counts = ConfusionCounts()

    if bound == "empirical":
        from repro.core.calibration import EmpiricalBound

        scheme = make_scheme(
            detector,
            matrix,
            config=AbftConfig(block_size=block_size),
            bound_override=EmpiricalBound.calibrate(
                matrix, block_size=block_size, samples=40, seed=seed + 1
            ),
        )
    else:
        scheme = make_scheme(
            detector, matrix, config=AbftConfig(block_size=block_size, bound=bound)
        )
    verdict = getattr(scheme, "verdict", None)
    if verdict is None:
        raise ConfigurationError(
            f"scheme {detector!r} exposes no verdict(b, r) method; "
            "coverage campaigns need one to score detections"
        )

    for _ in range(trials):
        b = rng.standard_normal(matrix.n_cols) * 10.0 ** rng.integers(-2, 3)
        r = matrix.matvec(b)

        clean_ranges = verdict(b, r)
        counts.false_positives += len(clean_ranges)
        if not clean_ranges:
            counts.true_negatives += 1

        try:
            record = injector.corrupt_random_element(r, sigma=sigma)
        except InjectionError:
            continue  # pathological element; skip the trial
        ranges = verdict(b, r)
        hit, misses = _ranges_containing(ranges, record.index)
        if hit:
            counts.true_positives += 1
        else:
            counts.false_negatives += 1
        counts.false_positives += misses

    return CoverageResult(counts=counts, trials=trials, sigma=sigma, detector=detector)


@dataclass(frozen=True)
class CorrectionTiming:
    """Average simulated runtimes of one correction campaign."""

    scheme: str
    mean_protected_seconds: float
    plain_seconds: float
    trials: int

    @property
    def overhead(self) -> float:
        return self.mean_protected_seconds / self.plain_seconds - 1.0


def run_correction_campaign(
    matrix: CsrMatrix,
    scheme: str,
    trials: int = 50,
    seed: int = 0,
    block_size: int = 32,
    machine: Machine | None = None,
) -> CorrectionTiming:
    """Measure detection+correction overhead under guaranteed-visible errors.

    Every trial injects one error large enough that *all* compared methods
    detect it (the paper triggers corrections in every evaluated method),
    then runs the scheme's full pipeline and records simulated time.
    ``scheme`` is any scheme name.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    machine = machine or Machine()
    rng = np.random.default_rng(seed)

    operator = make_scheme(
        scheme, matrix, config=AbftConfig(block_size=block_size), machine=machine
    )

    total = 0.0
    for _ in range(trials):
        b = rng.standard_normal(matrix.n_cols)
        # An error above the norm bound so even the dense check fires.
        magnitude = 10.0 * float(np.linalg.norm(b)) * (1.0 + rng.random())
        index = int(rng.integers(0, matrix.n_rows))
        state = {"armed": True}

        def tamper(stage, data, work):
            if stage == "result" and state["armed"]:
                data[index] += magnitude
                state["armed"] = False

        result = operator.multiply(b, tamper=tamper)
        total += result.seconds

    plain_meter = ExecutionMeter(machine=machine)
    plain_spmv(matrix, rng.standard_normal(matrix.n_cols), meter=plain_meter)
    return CorrectionTiming(
        scheme=scheme,
        mean_protected_seconds=total / trials,
        plain_seconds=plain_meter.seconds,
        trials=trials,
    )
