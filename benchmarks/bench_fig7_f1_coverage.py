"""Figure 7 — error coverage (F1 score), ours vs the dense check.

σ-significant bursts corrupt random result elements; detection verdicts
are scored as TP/FN/FP and summarized by the balanced F1 score.  Paper
result at σ = 1e-12: ours 0.68..0.88 (average 0.81), improved on average
by 52.2 % over the dense check (whose norm bound misses small errors);
averages 0.88 at σ = 1e-10 and 0.95 at σ = 1e-8.  The timed unit is one
small coverage campaign.
"""

from conftest import COVERAGE_TRIALS, write_result

from repro.analysis import (
    FIGURE7_SIGMAS,
    compare_coverage,
    render_coverage_comparison,
    run_coverage_campaign,
)


def test_fig7_f1_coverage(benchmark, full_suite):
    comparison = compare_coverage(
        full_suite, sigmas=FIGURE7_SIGMAS, trials=COVERAGE_TRIALS, seed=0
    )
    report = render_coverage_comparison(comparison)
    ours_12 = comparison.average_f1("abft", 1e-12)
    dense_12 = comparison.average_f1("dense_check", 1e-12)
    paper_note = (
        "paper @1e-12: ours avg 0.81 vs dense much lower (52.2% improvement); "
        "ours avg 0.88 @1e-10, 0.95 @1e-8 | "
        f"measured @1e-12: ours {ours_12:.3f} vs dense {dense_12:.3f}; "
        f"ours {comparison.average_f1('abft', 1e-10):.3f} @1e-10, "
        f"{comparison.average_f1('abft', 1e-8):.3f} @1e-8"
    )
    write_result("fig7_f1_coverage", f"{report}\n{paper_note}")

    # Ours dominates the dense check at every sigma, on every matrix.
    for sigma in FIGURE7_SIGMAS:
        for block, dense in zip(comparison.block[sigma], comparison.dense[sigma]):
            assert block.f1 > dense.f1
    # F1 grows with sigma (easier errors), as in the paper.
    assert (
        comparison.average_f1("abft", 1e-8)
        >= comparison.average_f1("abft", 1e-10)
        >= comparison.average_f1("abft", 1e-12)
    )
    assert ours_12 > 0.7
    assert dense_12 < 0.5

    matrix = full_suite[0][1]  # nos3
    benchmark.pedantic(
        lambda: run_coverage_campaign(matrix, "abft", trials=30, sigma=1e-10, seed=1),
        rounds=1,
        iterations=1,
    )
