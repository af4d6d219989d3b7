"""Reusable ablation studies (shared by the benches and the CLI).

Each function computes one of DESIGN.md's ablation targets and returns
plain data; ``render_*`` companions produce the text tables the benches
persist under ``results/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.campaign import run_coverage_campaign
from repro.analysis.metrics import mean
from repro.analysis.reporting import format_table, percent
from repro.analysis.sweeps import detection_overhead, plain_spmv_time
from repro.machine import TESLA_K80_NO_OVERLAP, Machine
from repro.schemes import make_scheme
from repro.sparse.csr import CsrMatrix
from repro.sparse.suite import MatrixSpec

#: Bound families compared by the bound ablation.
BOUND_FAMILIES: Tuple[str, ...] = ("sparse", "empirical", "dense", "norm")


@dataclass(frozen=True)
class BoundAblation:
    """F1 per (matrix, bound family) at one significance level."""

    names: Tuple[str, ...]
    sigma: float
    f1: Dict[str, Tuple[float, ...]]

    def average(self, bound: str) -> float:
        return mean(self.f1[bound])


def ablate_bounds(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
    trials: int = 120,
    sigma: float = 1e-12,
    seed: int = 11,
) -> BoundAblation:
    """Coverage of the same block detector under each bound family."""
    names = tuple(spec.name for spec, _ in suite)
    f1: Dict[str, list] = {bound: [] for bound in BOUND_FAMILIES}
    for spec, matrix in suite:
        for bound in BOUND_FAMILIES:
            result = run_coverage_campaign(
                matrix, "abft", trials=trials, sigma=sigma, seed=seed, bound=bound
            )
            f1[bound].append(result.f1)
    return BoundAblation(
        names=names, sigma=sigma, f1={k: tuple(v) for k, v in f1.items()}
    )


def render_bound_ablation(ablation: BoundAblation) -> str:
    """Text table for the bound-family coverage ablation."""
    rows = [
        (name,) + tuple(f"{ablation.f1[b][i]:.3f}" for b in BOUND_FAMILIES)
        for i, name in enumerate(ablation.names)
    ]
    table = format_table(
        ("matrix", "sparse (paper)", "empirical", "dense analytical", "norm ||b||"),
        rows,
        title=f"Ablation — F1 coverage by bound family (sigma={ablation.sigma:g})",
    )
    averages = ", ".join(
        f"{b} {ablation.average(b):.3f}" for b in BOUND_FAMILIES
    )
    return f"{table}\naverages: {averages}"


@dataclass(frozen=True)
class OverlapAblation:
    """Detection overhead with 4 streams vs 1 stream, per matrix."""

    names: Tuple[str, ...]
    overlapped: Tuple[float, ...]
    serialized: Tuple[float, ...]

    @property
    def mean_increase(self) -> float:
        return mean(s - o for o, s in zip(self.overlapped, self.serialized))


def ablate_overlap(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
) -> OverlapAblation:
    """Quantify the stream-overlap contribution (DESIGN.md decision 4)."""
    overlapped_machine = Machine()
    serial_machine = Machine(TESLA_K80_NO_OVERLAP)
    names, overlapped, serialized = [], [], []
    for spec, matrix in suite:
        names.append(spec.name)
        overlapped.append(detection_overhead(matrix, "abft", machine=overlapped_machine))
        serialized.append(detection_overhead(matrix, "abft", machine=serial_machine))
    return OverlapAblation(tuple(names), tuple(overlapped), tuple(serialized))


def render_overlap_ablation(ablation: OverlapAblation) -> str:
    """Text table for the stream-overlap ablation."""
    rows = [
        (name, percent(o), percent(s))
        for name, o, s in zip(ablation.names, ablation.overlapped, ablation.serialized)
    ]
    table = format_table(
        ("matrix", "4 streams (paper)", "1 stream (serialized)"),
        rows,
        title="Ablation — detection overhead with and without stream overlap",
    )
    return (
        f"{table}\nmean overhead increase without overlap: "
        f"{ablation.mean_increase:+.1%}"
    )


@dataclass(frozen=True)
class RedundancyAblation:
    """Fault-free overhead of ABFT vs DWC vs TMR, per matrix."""

    names: Tuple[str, ...]
    nnz: Tuple[int, ...]
    overheads: Dict[str, Tuple[float, ...]]


def ablate_redundancy(
    suite: Sequence[Tuple[MatrixSpec, CsrMatrix]],
    seed: int = 71,
    machine: Machine | None = None,
) -> RedundancyAblation:
    """ABFT vs duplication/triplication (paper Section II's cost claim)."""
    machine = machine or Machine()
    names, nnz = [], []
    overheads: Dict[str, list] = {"ours": [], "dwc": [], "tmr": []}
    for spec, matrix in suite:
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(matrix.n_cols)
        plain = plain_spmv_time(matrix, machine)
        names.append(spec.name)
        nnz.append(matrix.nnz)
        overheads["ours"].append(
            make_scheme("abft", matrix, machine=machine)
            .multiply(b).seconds / plain - 1.0
        )
        overheads["dwc"].append(
            make_scheme("redundancy", matrix, machine=machine)
            .multiply(b).seconds / plain - 1.0
        )
        overheads["tmr"].append(
            make_scheme("tmr", matrix, machine=machine)
            .multiply(b).seconds / plain - 1.0
        )
    return RedundancyAblation(
        names=tuple(names),
        nnz=tuple(nnz),
        overheads={k: tuple(v) for k, v in overheads.items()},
    )


def render_redundancy_ablation(ablation: RedundancyAblation) -> str:
    """Text table for the ABFT-vs-redundancy comparison."""
    rows = [
        (
            name,
            nnz,
            percent(ablation.overheads["ours"][i]),
            percent(ablation.overheads["dwc"][i]),
            percent(ablation.overheads["tmr"][i]),
        )
        for i, (name, nnz) in enumerate(zip(ablation.names, ablation.nnz))
    ]
    return format_table(
        ("matrix", "nnz", "ours (ABFT)", "DWC (2x)", "TMR (3x)"),
        rows,
        title="Ablation — ABFT vs redundant execution (fault-free overhead)",
    )
