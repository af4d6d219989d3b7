"""Extension study — the five-scheme PCG comparison.

Extends the paper's Figure 8/9 case study with the extension scheme
``hybrid`` (the proposed ABFT multiply with checkpoint rollback as a
safety net for uncorrectable multiplies).  One moderate and one harsh
error rate, on the case-study subset.
"""

import numpy as np
from conftest import PCG_MAX_ITERATION_FACTOR, write_result

from repro.analysis import format_table, mean, percent, runtime_overhead
from repro.solvers import FtPcgOptions, run_pcg

SCHEMES = ("unprotected", "abft", "hybrid", "bisection", "checkpoint")
RATES = (1e-6, 3e-5)
RUNS = 4
MATRICES = ("nos3", "bcsstk21")


def test_five_scheme_pcg(benchmark, pcg_suite):
    subset = [(s, m) for s, m in pcg_suite if s.name in MATRICES]
    options = FtPcgOptions(max_iteration_factor=PCG_MAX_ITERATION_FACTOR)

    baselines = {}
    rhs = {}
    for spec, matrix in subset:
        rng = np.random.default_rng(31)
        rhs[spec.name] = matrix.matvec(rng.standard_normal(matrix.n_rows))
        baselines[spec.name] = run_pcg(
            matrix, rhs[spec.name], scheme="unprotected", error_rate=0.0,
            seed=0, options=options,
        ).seconds

    rows = []
    stats = {}
    for scheme in SCHEMES:
        cells = []
        for rate in RATES:
            correct = 0
            overheads = []
            for spec, matrix in subset:
                for run in range(RUNS):
                    result = run_pcg(
                        matrix, rhs[spec.name], scheme=scheme, error_rate=rate,
                        seed=100 * run + 13, options=options,
                    )
                    correct += result.correct
                    if result.correct:
                        overheads.append(
                            runtime_overhead(result.seconds, baselines[spec.name])
                        )
            total = RUNS * len(subset)
            overhead = mean(overheads) if overheads else None
            stats[(scheme, rate)] = (correct / total, overhead)
            cells.append(f"{correct}/{total} ({percent(overhead)})")
        rows.append((scheme,) + tuple(cells))

    table = format_table(
        ("scheme",) + tuple(f"lambda={r:g}" for r in RATES),
        rows,
        title="Extension — five-scheme PCG case study: correct runs (overhead)",
    )
    write_result("ext_pcg_schemes", table)

    # The ABFT family (abft/hybrid) dominates the related work at the
    # harsh rate, and the hybrid never does worse than plain checkpointing.
    harsh = RATES[-1]
    for scheme in ("abft", "hybrid"):
        assert stats[(scheme, harsh)][0] >= stats[("bisection", harsh)][0]
        assert stats[(scheme, harsh)][0] >= stats[("checkpoint", harsh)][0]
    assert stats[("hybrid", harsh)][0] >= stats[("checkpoint", harsh)][0]

    matrix = subset[0][1]
    benchmark.pedantic(
        lambda: run_pcg(
            matrix, rhs[subset[0][0].name], scheme="hybrid", error_rate=1e-6,
            seed=5, options=options,
        ),
        rounds=1,
        iterations=1,
    )
