"""Naive-vs-vectorized kernel dispatch benchmark.

Times the library's kernel set against the naive oracle of the test suite
(:mod:`tests.kernels.naive`, installed through its
:func:`~tests.kernels.naive.kernels_installed`) on the hot paths of a
protected multiply — full detection, selected-block re-verification and
block correction — over a 10k-row random SPD matrix, and records the
speedup table to ``results/bench_kernels_dispatch.txt``.  The vectorized
set must beat the naive reference by at least 3x on the detection path
(the batched kernels exist to make per-block protection affordable, so a
regression here defeats the subsystem's purpose) and on encoding, which
every new operator pays (``run_pcg`` builds one per solve).

Encoding is timed on two inputs, one per grouping path of the vectorized
encoder: the random SPD matrix's 8-row blocks span about 24 columns per
stored entry, so it sorts its entries; a banded matrix of similar size
(half-bandwidth 6, about 0.2 columns per entry) marks its blocks' column
envelopes instead.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import bench_env, write_json, write_result
from repro.core import AbftConfig, BlockAbftDetector, ChecksumMatrix
from repro.core.corrector import correct_blocks
from repro.kernels import VectorizedKernels
from repro.sparse import banded_spd, random_spd
from tests.kernels.naive import NaiveKernels, kernels_installed

N_ROWS = 10_000
NNZ = 120_000
BANDED_HALF_BANDWIDTH = 6
BLOCK_SIZE = 8
MIN_DETECTION_SPEEDUP = 3.0
MIN_ENCODE_SPEEDUP = 3.0
REPEATS = 5


@pytest.fixture(scope="module")
def matrix():
    return random_spd(N_ROWS, NNZ, seed=17)


@pytest.fixture(scope="module")
def banded():
    return banded_spd(N_ROWS, BANDED_HALF_BANDWIDTH)


@pytest.fixture(scope="module")
def operand(matrix):
    return np.random.default_rng(18).standard_normal(matrix.n_cols)


@pytest.fixture(scope="module")
def detectors(matrix):
    detectors = {}
    for kernels in (NaiveKernels(), VectorizedKernels()):
        with kernels_installed(kernels):
            detectors[kernels.name] = BlockAbftDetector(
                matrix, AbftConfig(block_size=BLOCK_SIZE)
            )
    return detectors


def _best_of(fn, repeats=REPEATS):
    """Best-of-N wall time — robust to scheduler noise for short kernels."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _timings(matrix, banded, operand, detectors):
    r = matrix.matvec(operand)
    blocks = np.arange(detectors["naive"].n_blocks, dtype=np.int64)[::4]
    rows = {}
    for name, detector in detectors.items():
        partition = detector.partition
        scratch = r.copy()
        rows[name] = {
            "encode": _best_of(
                lambda d=detector: ChecksumMatrix.build(matrix, BLOCK_SIZE, kernels=d.kernels),
                repeats=3,
            ),
            "encode_banded": _best_of(
                lambda d=detector: ChecksumMatrix.build(banded, BLOCK_SIZE, kernels=d.kernels),
                repeats=3,
            ),
            "detect": _best_of(lambda d=detector: d.detect(operand, r)),
            "reverify": _best_of(
                lambda d=detector: d.checksum.result_checksums_for_blocks(r, blocks)
            ),
            "correct": _best_of(
                lambda d=detector, s=scratch: correct_blocks(
                    matrix, d.partition, operand, s, blocks, kernels=d.kernels
                )
            ),
        }
    return rows


def test_vectorized_beats_naive(matrix, banded, operand, detectors, benchmark):
    timings = _timings(matrix, banded, operand, detectors)
    stages = ("encode", "encode_banded", "detect", "reverify", "correct")
    speedups = {
        stage: timings["naive"][stage] / timings["vectorized"][stage]
        for stage in stages
    }

    lines = [
        "Kernel dispatch: naive vs vectorized "
        f"(random SPD, n={N_ROWS}, nnz={NNZ}, block size {BLOCK_SIZE}; "
        f"encode_banded: banded SPD, n={N_ROWS}, half-bandwidth "
        f"{BANDED_HALF_BANDWIDTH}, nnz={banded.nnz})",
        "",
        f"{'stage':<14} {'naive [ms]':>12} {'vectorized [ms]':>16} {'speedup':>9}",
    ]
    for stage in stages:
        lines.append(
            f"{stage:<14} {1e3 * timings['naive'][stage]:>12.3f} "
            f"{1e3 * timings['vectorized'][stage]:>16.3f} "
            f"{speedups[stage]:>8.1f}x"
        )
    write_result("bench_kernels_dispatch", "\n".join(lines))
    write_json(
        "kernels_dispatch",
        {
            "benchmark": "kernels_dispatch",
            "config": {
                "n_rows": N_ROWS,
                "nnz": NNZ,
                "block_size": BLOCK_SIZE,
                "repeats": REPEATS,
                "banded_half_bandwidth": BANDED_HALF_BANDWIDTH,
                "banded_nnz": banded.nnz,
            },
            "timings_ms": {
                name: {stage: 1e3 * row[stage] for stage in stages}
                for name, row in timings.items()
            },
            "speedups": speedups,
            "floors": {
                "encode": MIN_ENCODE_SPEEDUP,
                "encode_banded": MIN_ENCODE_SPEEDUP,
                "detect": MIN_DETECTION_SPEEDUP,
                "reverify": MIN_DETECTION_SPEEDUP,
            },
            "env": bench_env(),
        },
    )

    # The acceptance floors: batched encoding (on both grouping paths) and
    # detection must be >= 3x the loops.
    assert speedups["encode"] >= MIN_ENCODE_SPEEDUP
    assert speedups["encode_banded"] >= MIN_ENCODE_SPEEDUP
    assert speedups["detect"] >= MIN_DETECTION_SPEEDUP
    assert speedups["reverify"] >= MIN_DETECTION_SPEEDUP

    r = matrix.matvec(operand)
    report = benchmark.pedantic(
        lambda: detectors["vectorized"].detect(operand, r), rounds=3, iterations=1
    )
    assert report.clean
