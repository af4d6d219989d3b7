"""Unit tests for sweeps and text reporting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    FIGURE4_BLOCK_SIZES,
    PCG_ERROR_RATES,
    compare_correction_overheads,
    compare_coverage,
    compare_detection_overheads,
    detection_overhead,
    format_table,
    percent,
    plain_spmv_time,
    render_block_size_sweep,
    render_correction_comparison,
    render_coverage_comparison,
    render_detection_comparison,
    render_pcg_cells,
    sweep_block_sizes,
    sweep_pcg,
)
from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.sparse import iter_suite


@pytest.fixture(scope="module")
def small_suite():
    return list(iter_suite(names=["nos3", "bcsstk13"]))


def test_plain_spmv_time_positive(small_suite):
    machine = Machine()
    for _, matrix in small_suite:
        assert plain_spmv_time(matrix, machine) > 0


def test_detection_overhead_block_beats_dense(small_suite):
    for _, matrix in small_suite:
        assert detection_overhead(matrix, "abft") < detection_overhead(matrix, "dense_check")


def test_detection_overhead_rejects_unknown_method(small_suite):
    with pytest.raises(ConfigurationError):
        detection_overhead(small_suite[0][1], "bogus")


def test_detection_overhead_rejects_nonpositive_block_size(small_suite):
    with pytest.raises(ConfigurationError, match="block_size must be >= 1"):
        detection_overhead(small_suite[0][1], "abft", block_size=0)


def test_block_size_sweep_structure(small_suite):
    sweep = sweep_block_sizes(small_suite, block_sizes=(1, 32, 512))
    assert sweep.block_sizes == (1, 32, 512)
    assert set(sweep.per_matrix) == {"nos3", "bcsstk13"}
    assert len(sweep.averages()) == 3
    # The paper's U-shape: 32 beats both extremes.
    assert sweep.average(32) < sweep.average(1)
    assert sweep.average(32) < sweep.average(512)
    assert sweep.best_block_size() == 32


def test_figure4_grid_overheads_positive(small_suite):
    sweep = sweep_block_sizes(small_suite)
    assert sweep.block_sizes == FIGURE4_BLOCK_SIZES
    for overheads in sweep.per_matrix.values():
        assert all(overhead > 0 for overhead in overheads)


def test_single_matrix_optimum_in_figure4_region(small_suite):
    # Per matrix the optimum moves, but bcsstk13's detection-only
    # minimum stays inside the paper's 16-128 valley.
    bcsstk13 = [entry for entry in small_suite if entry[0].name == "bcsstk13"]
    sweep = sweep_block_sizes(bcsstk13)
    best = sweep.best_block_size()
    assert 16 <= best <= 128
    assert sweep.average(best) == min(sweep.averages())


def test_detection_comparison_reduction_positive(small_suite):
    comparison = compare_detection_overheads(small_suite)
    assert comparison.average_reduction > 0.3


def test_correction_comparison_structure(small_suite):
    comparison = compare_correction_overheads(small_suite, trials=5, seed=1)
    assert comparison.names == ("nos3", "bcsstk13")
    assert comparison.average_reduction_vs("bisection") > 0
    assert comparison.average_reduction_vs("complete") > 0


def test_coverage_comparison_structure(small_suite):
    comparison = compare_coverage(small_suite, sigmas=(1e-10,), trials=40, seed=2)
    assert comparison.average_f1("abft", 1e-10) > comparison.average_f1("dense_check", 1e-10)


def test_sweep_pcg_cells(small_suite):
    cells = sweep_pcg(
        small_suite[:1],
        schemes=("abft",),
        error_rates=(0.0, 1e-6),
        runs=2,
        seed=3,
    )
    clean = cells[("abft", 0.0)]
    assert clean.runs == 2
    assert clean.success_rate == 1.0
    assert clean.mean_overhead is not None and clean.mean_overhead > 0


def test_figure_constants():
    assert 32 in FIGURE4_BLOCK_SIZES
    assert 1e-8 in PCG_ERROR_RATES and 1e-4 in PCG_ERROR_RATES


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    table = format_table(("a", "long-header"), [(1, 2.5), ("xx", "y")], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "long-header" in lines[1]
    assert len(lines) == 5


def test_percent_formatting():
    assert percent(0.437) == "43.7%"
    assert percent(None) == "-"


def test_render_functions_produce_text(small_suite):
    sweep = sweep_block_sizes(small_suite, block_sizes=(1, 32, 512))
    assert "Figure 4" in render_block_size_sweep(sweep)

    detection = compare_detection_overheads(small_suite)
    out = render_detection_comparison(detection)
    assert "Figure 5" in out and "nos3" in out

    correction = compare_correction_overheads(small_suite, trials=3, seed=4)
    out = render_correction_comparison(correction)
    assert "Figure 6" in out and "partial" in out

    coverage = compare_coverage(small_suite, sigmas=(1e-10,), trials=20, seed=5)
    out = render_coverage_comparison(coverage)
    assert "Figure 7" in out

    cells = sweep_pcg(
        small_suite[:1], schemes=("abft",), error_rates=(0.0,), runs=1, seed=6
    )
    out = render_pcg_cells(cells, schemes=("abft",), rates=(0.0,))
    assert "Figure 8" in out and "Figure 9" in out


#: One sweep cell whose result depends on the right-hand side's values.
SWEEP_CELL_SCRIPT = """
from repro.analysis import sweep_pcg
from repro.sparse import iter_suite

cells = sweep_pcg(
    list(iter_suite(names=["nos3"])),
    schemes=("abft",), error_rates=(1e-5,), runs=2, seed=0,
)
print(repr(cells))
"""


def test_sweep_pcg_ignores_the_string_hash_seed():
    """Figures 8/9 must not change with ``PYTHONHASHSEED``: each system's
    right-hand side is seeded from a stable digest of its name."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", SWEEP_CELL_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
