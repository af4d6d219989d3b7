"""Parameter sweeps behind each figure of the paper's evaluation.

Each function returns plain data (dataclasses over floats) so the benchmark
harness and the reporting module can render paper-style tables without
recomputing anything.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.campaign import (
    CorrectionTiming,
    CoverageResult,
    run_correction_campaign,
    run_coverage_campaign,
)
from repro.analysis.metrics import mean, runtime_overhead, success_rate
from repro.core.config import AbftConfig
from repro.errors import ConfigurationError
from repro.machine import ExecutionMeter, Machine, spmv_cost
from repro.schemes import (
    DEFAULT_CORRECTION_SCHEMES,
    DEFAULT_PCG_SCHEMES,
    DEFAULT_SCHEME,
    canonical_scheme_name,
    make_scheme,
)
from repro.solvers.ft_pcg import FtPcgOptions, run_pcg
from repro.sparse.csr import CsrMatrix
from repro.sparse.suite import MatrixSpec

#: Block sizes swept in Figure 4.
FIGURE4_BLOCK_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Error rates swept in Figures 8-9.
PCG_ERROR_RATES: Tuple[float, ...] = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

#: Minimal error significances of Figure 7.
FIGURE7_SIGMAS: Tuple[float, ...] = (1e-8, 1e-10, 1e-12)


def plain_spmv_time(matrix: CsrMatrix, machine: Machine) -> float:
    """Modeled runtime of one unprotected SpMV."""
    cost = spmv_cost(matrix.nnz, int(matrix.row_lengths().max(initial=1)))
    return ExecutionMeter(machine=machine).run_kernel(cost)


def detection_overhead(
    matrix: CsrMatrix,
    method: str = DEFAULT_SCHEME,
    block_size: int = 32,
    machine: Machine | None = None,
) -> float:
    """Modeled error-detection overhead of one protected SpMV (Figures 4-5).

    ``method`` is a scheme name (``"abft"``, ``"dense_check"``,
    ...); the scheme's own ``detection_graph`` provides the modeled cost.
    """
    machine = machine or Machine()
    scheme = make_scheme(
        method,
        matrix,
        config=AbftConfig(block_size=block_size),
        machine=machine,
    )
    graph = scheme.detection_graph()
    return runtime_overhead(machine.makespan(graph), plain_spmv_time(matrix, machine))


@dataclass(frozen=True)
class BlockSizeSweep:
    """Figure 4 data: detection overhead per (matrix, block size)."""

    block_sizes: Tuple[int, ...]
    per_matrix: Dict[str, Tuple[float, ...]]

    def average(self, block_size: int) -> float:
        index = self.block_sizes.index(block_size)
        return mean(values[index] for values in self.per_matrix.values())

    def averages(self) -> Tuple[float, ...]:
        return tuple(self.average(bs) for bs in self.block_sizes)

    def best_block_size(self) -> int:
        averages = self.averages()
        return self.block_sizes[int(np.argmin(averages))]


def sweep_block_sizes(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
    block_sizes: Sequence[int] = FIGURE4_BLOCK_SIZES,
    machine: Machine | None = None,
) -> BlockSizeSweep:
    """Figure 4: detection overhead as a function of the block size."""
    machine = machine or Machine()
    per_matrix: Dict[str, Tuple[float, ...]] = {}
    for spec, matrix in suite:
        per_matrix[spec.name] = tuple(
            detection_overhead(matrix, "abft", bs, machine) for bs in block_sizes
        )
    return BlockSizeSweep(block_sizes=tuple(block_sizes), per_matrix=per_matrix)


@dataclass(frozen=True)
class DetectionComparison:
    """Figure 5 data: per-matrix detection overheads, ours vs dense check."""

    names: Tuple[str, ...]
    block: Tuple[float, ...]
    dense: Tuple[float, ...]

    @property
    def average_reduction(self) -> float:
        return mean(
            1.0 - ours / theirs for ours, theirs in zip(self.block, self.dense)
        )


def compare_detection_overheads(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
    block_size: int = 32,
    machine: Machine | None = None,
) -> DetectionComparison:
    """Figure 5: detection overhead, proposed scheme vs dense check."""
    machine = machine or Machine()
    names, block, dense = [], [], []
    for spec, matrix in suite:
        names.append(spec.name)
        block.append(detection_overhead(matrix, "abft", block_size, machine))
        dense.append(detection_overhead(matrix, "dense_check", machine=machine))
    return DetectionComparison(tuple(names), tuple(block), tuple(dense))


@dataclass(frozen=True)
class CorrectionComparison:
    """Figure 6 data: detection+correction overheads per matrix and scheme."""

    names: Tuple[str, ...]
    timings: Dict[str, Tuple[CorrectionTiming, ...]]

    def _key(self, scheme: str) -> str:
        """Validate a scheme name against the timings keys."""
        if scheme not in self.timings:
            raise ConfigurationError(
                f"unknown correction scheme {scheme!r}; "
                f"expected one of {tuple(sorted(self.timings))}"
            )
        return scheme

    # reprolint: disable=ABFT006 -- _key raises ConfigurationError on unknown schemes
    def overheads(self, scheme: str) -> Tuple[float, ...]:
        return tuple(t.overhead for t in self.timings[self._key(scheme)])

    def average_reduction_vs(self, baseline: str) -> float:
        ours_timings = self.timings[self._key(DEFAULT_SCHEME)]
        return mean(
            1.0 - ours.overhead / theirs.overhead
            for ours, theirs in zip(ours_timings, self.timings[self._key(baseline)])
        )


def compare_correction_overheads(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
    trials: int = 30,
    seed: int = 0,
    machine: Machine | None = None,
    schemes: Sequence[str] = DEFAULT_CORRECTION_SCHEMES,
) -> CorrectionComparison:
    """Figure 6: detection+correction overhead per scheme (default: the
    paper's abft/bisection/complete triple)."""
    machine = machine or Machine()
    names = tuple(spec.name for spec, _ in suite)
    timings: Dict[str, list] = {
        canonical_scheme_name(scheme): [] for scheme in schemes
    }
    for index, (spec, matrix) in enumerate(suite):
        for scheme in timings:
            timings[scheme].append(
                run_correction_campaign(
                    matrix, scheme, trials=trials, seed=seed + index, machine=machine
                )
            )
    return CorrectionComparison(
        names=names, timings={k: tuple(v) for k, v in timings.items()}
    )


@dataclass(frozen=True)
class CoverageComparison:
    """Figure 7 data: F1 per (matrix, sigma), ours vs dense check."""

    names: Tuple[str, ...]
    sigmas: Tuple[float, ...]
    block: Dict[float, Tuple[CoverageResult, ...]]
    dense: Dict[float, Tuple[CoverageResult, ...]]

    def average_f1(self, detector: str, sigma: float) -> float:
        by_scheme = {"abft": self.block, "dense_check": self.dense}
        if detector not in by_scheme:
            raise ConfigurationError(
                f"no coverage data for scheme {detector!r}; "
                f"expected one of {tuple(sorted(by_scheme))}"
            )
        return mean(result.f1 for result in by_scheme[detector][sigma])


def compare_coverage(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
    sigmas: Sequence[float] = FIGURE7_SIGMAS,
    trials: int = 200,
    seed: int = 0,
) -> CoverageComparison:
    """Figure 7: F1 coverage, proposed bound vs dense check with norm bound."""
    names = tuple(spec.name for spec, _ in suite)
    block: Dict[float, list] = {sigma: [] for sigma in sigmas}
    dense: Dict[float, list] = {sigma: [] for sigma in sigmas}
    for index, (spec, matrix) in enumerate(suite):
        for sigma in sigmas:
            block[sigma].append(
                run_coverage_campaign(
                    matrix, "abft", trials=trials, sigma=sigma, seed=seed + index
                )
            )
            dense[sigma].append(
                run_coverage_campaign(
                    matrix, "dense_check", trials=trials, sigma=sigma, seed=seed + index
                )
            )
    return CoverageComparison(
        names=names,
        sigmas=tuple(sigmas),
        block={k: tuple(v) for k, v in block.items()},
        dense={k: tuple(v) for k, v in dense.items()},
    )


@dataclass(frozen=True)
class PcgCell:
    """Aggregate of one (scheme, error-rate) cell of Figures 8-9."""

    scheme: str
    error_rate: float
    runs: int
    success_rate: float
    mean_overhead: float | None  # None when no run was correct
    mean_iterations: float


def sweep_pcg(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
    schemes: Sequence[str] = DEFAULT_PCG_SCHEMES,
    error_rates: Sequence[float] = PCG_ERROR_RATES,
    runs: int = 10,
    seed: int = 0,
    machine: Machine | None = None,
    options: FtPcgOptions | None = None,
) -> Dict[Tuple[str, float], PcgCell]:
    """Figures 8-9: PCG runtime overhead and success rate per error rate.

    Overhead of a cell is measured against the *fault-free unprotected*
    runtime of the same system (the paper's baseline), averaged over the
    runs that produced a correct result — exactly the paper's procedure.
    """
    machine = machine or Machine()
    options = options or FtPcgOptions()
    cells: Dict[Tuple[str, float], PcgCell] = {}

    baselines = {}
    rhs = {}
    for spec, matrix in suite:
        # crc32, not hash(): str hashes are salted per process
        # (PYTHONHASHSEED), and the right-hand side must not be.
        rng = np.random.default_rng(zlib.crc32(spec.name.encode()))
        x_true = rng.standard_normal(matrix.n_rows)
        b = matrix.matvec(x_true)
        rhs[spec.name] = b
        clean = run_pcg(
            matrix, b, scheme="unprotected", error_rate=0.0,
            seed=seed, machine=machine, options=options,
        )
        baselines[spec.name] = clean.seconds

    for scheme in schemes:
        for rate in error_rates:
            outcomes = []
            overheads = []
            iterations = []
            for spec, matrix in suite:
                for run_index in range(runs):
                    result = run_pcg(
                        matrix,
                        rhs[spec.name],
                        scheme=scheme,
                        error_rate=rate,
                        seed=seed + 1000 * run_index + 7,
                        machine=machine,
                        options=options,
                    )
                    outcomes.append(result.correct)
                    iterations.append(result.iterations)
                    if result.correct:
                        overheads.append(
                            runtime_overhead(result.seconds, baselines[spec.name])
                        )
            cells[(scheme, rate)] = PcgCell(
                scheme=scheme,
                error_rate=rate,
                runs=len(outcomes),
                success_rate=success_rate(outcomes),
                mean_overhead=mean(overheads) if overheads else None,
                mean_iterations=mean(iterations),
            )
    return cells
