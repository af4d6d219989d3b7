"""Text rendering of paper-style tables and figure data.

Everything prints plain monospace tables so benchmark output can be diffed
against EXPERIMENTS.md and read in a terminal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.sweeps import (
    BlockSizeSweep,
    CorrectionComparison,
    CoverageComparison,
    DetectionComparison,
    PcgCell,
)
from repro.schemes import DEFAULT_CORRECTION_SCHEMES


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def percent(value: float | None) -> str:
    """Format a ratio as a percentage ('-' for missing)."""
    if value is None:
        return "-"
    return f"{100.0 * value:.1f}%"


def render_block_size_sweep(sweep: BlockSizeSweep) -> str:
    """Figure 4: average detection overhead per block size."""
    rows = [
        (bs, percent(sweep.average(bs)))
        for bs in sweep.block_sizes
    ]
    best = sweep.best_block_size()
    table = format_table(
        ("block size", "avg detection overhead"),
        rows,
        title="Figure 4 — runtime overhead of SpMV error detection vs block size",
    )
    return f"{table}\nminimum at block size {best}"


def render_detection_comparison(comparison: DetectionComparison) -> str:
    """Figure 5: per-matrix detection overheads."""
    rows = [
        (name, percent(block), percent(dense), percent(1.0 - block / dense))
        for name, block, dense in zip(
            comparison.names, comparison.block, comparison.dense
        )
    ]
    table = format_table(
        ("matrix", "ours", "dense check", "reduction"),
        rows,
        title="Figure 5 — runtime overhead for error detection",
    )
    return f"{table}\naverage reduction vs dense check: {percent(comparison.average_reduction)}"


def render_correction_comparison(comparison: CorrectionComparison) -> str:
    """Figure 6: per-matrix detection+correction overheads."""
    ours_key, partial_key, complete_key = DEFAULT_CORRECTION_SCHEMES
    rows = []
    for index, name in enumerate(comparison.names):
        rows.append(
            (
                name,
                percent(comparison.timings[ours_key][index].overhead),
                percent(comparison.timings[partial_key][index].overhead),
                percent(comparison.timings[complete_key][index].overhead),
            )
        )
    table = format_table(
        ("matrix", "ours", "partial [30]", "complete [31]"),
        rows,
        title="Figure 6 — runtime overhead for error detection and correction",
    )
    partial = comparison.average_reduction_vs(partial_key)
    complete = comparison.average_reduction_vs(complete_key)
    return (
        f"{table}\naverage reduction vs partial recomputation: {percent(partial)}"
        f"\naverage reduction vs complete recomputation: {percent(complete)}"
    )


def render_coverage_comparison(comparison: CoverageComparison) -> str:
    """Figure 7: per-matrix F1 scores for every sigma."""
    sections = []
    for sigma in comparison.sigmas:
        rows = []
        for index, name in enumerate(comparison.names):
            ours = comparison.block[sigma][index].f1
            dense = comparison.dense[sigma][index].f1
            rows.append((name, f"{ours:.3f}", f"{dense:.3f}"))
        table = format_table(
            ("matrix", "ours F1", "dense-check F1"),
            rows,
            title=f"Figure 7 — error coverage at sigma = {sigma:g}",
        )
        avg_ours = comparison.average_f1("abft", sigma)
        avg_dense = comparison.average_f1("dense_check", sigma)
        sections.append(
            f"{table}\naverage F1: ours {avg_ours:.3f}, dense {avg_dense:.3f}"
        )
    return "\n\n".join(sections)


def render_pcg_cells(
    cells: dict[tuple[str, float], PcgCell],
    schemes: Sequence[str],
    rates: Sequence[float],
) -> str:
    """Figures 8-9: overhead and success rate per (scheme, error rate)."""
    overhead_rows = []
    success_rows = []
    for rate in rates:
        overhead_rows.append(
            (f"{rate:g}",)
            + tuple(percent(cells[(s, rate)].mean_overhead) for s in schemes)
        )
        success_rows.append(
            (f"{rate:g}",)
            + tuple(percent(cells[(s, rate)].success_rate) for s in schemes)
        )
    overhead = format_table(
        ("error rate",) + tuple(schemes),
        overhead_rows,
        title="Figure 8 — PCG runtime overhead vs error rate",
    )
    success = format_table(
        ("error rate",) + tuple(schemes),
        success_rows,
        title="Figure 9 — successful PCG executions vs error rate",
    )
    return f"{overhead}\n\n{success}"
