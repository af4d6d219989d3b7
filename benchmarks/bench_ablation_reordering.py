"""Ablation — matrix ordering vs checksum sparsity and format structure.

The checksum matrix ``C`` inherits sparsity from ``A`` only when rows
inside a block share columns, i.e. when the ordering is local.  This bench
scrambles a suite matrix with a random relabeling, restores locality with
reverse Cuthill-McKee, and measures the effect on ``nnz(C)`` and the
modeled detection overhead — quantifying how much the paper's scheme
depends on (and benefits from) good orderings.

Ordering also decides what the plan-time format heuristic sees: BSR fill
ratio is a property of the *ordered* pattern, so each ordering row
additionally records the probed tile fill and what ``auto`` would
select.  Results go to
``results/ablation_reordering.txt`` and machine-readable
``results/BENCH_reordering.json``.
"""

from conftest import bench_env, write_json, write_result

from repro.analysis import detection_overhead, format_table
from repro.core import ChecksumMatrix
from repro.sparse import (
    bandwidth,
    probe_block_shape,
    random_permutation,
    reverse_cuthill_mckee,
    select_format,
    suite_matrix,
    symmetric_permute,
)

BLOCK_SIZE = 32


def test_reordering_ablation(benchmark):
    original = suite_matrix("bcsstk13")
    scrambled = symmetric_permute(
        original, random_permutation(original.n_rows, seed=17)
    )
    restored = symmetric_permute(scrambled, reverse_cuthill_mckee(scrambled))

    rows = []
    stats = {}
    orderings = {}
    for label, matrix in (
        ("original (local)", original),
        ("scrambled", scrambled),
        ("scrambled + RCM", restored),
    ):
        checksum = ChecksumMatrix.build(matrix, block_size=BLOCK_SIZE)
        overhead = detection_overhead(matrix, "abft")
        block_shape, fill = probe_block_shape(matrix)
        choice, _ = select_format(matrix, "auto")
        stats[label] = (checksum.sparsity_gain, overhead)
        orderings[label] = {
            "bandwidth": int(bandwidth(matrix)),
            "checksum_sparsity_gain": checksum.sparsity_gain,
            "detection_overhead": overhead,
            "formats": {
                "bsr_fill_ratio": fill,
                "bsr_block_shape": list(block_shape),
                "auto_choice": choice.format,
                "auto_reason": choice.reason,
            },
        }
        rows.append(
            (
                label,
                bandwidth(matrix),
                f"{checksum.sparsity_gain:.3f}",
                f"{overhead:.1%}",
                f"{fill:.3f}",
                choice.format,
            )
        )
    table = format_table(
        (
            "ordering",
            "bandwidth",
            "nnz(C)/nnz(A)",
            "detection overhead",
            "BSR fill",
            "auto",
        ),
        rows,
        title="Ablation — ordering locality vs checksum sparsity (bcsstk13 analogue)",
    )
    write_result("ablation_reordering", table)

    # RCM's effect per format: relative change of the structure metrics
    # the plan-time heuristics key on, scrambled -> restored.
    fmt = {label: o["formats"] for label, o in orderings.items()}
    rcm_effect = {
        "bsr_fill_ratio": {
            "scrambled": fmt["scrambled"]["bsr_fill_ratio"],
            "restored": fmt["scrambled + RCM"]["bsr_fill_ratio"],
            "gain": (
                fmt["scrambled + RCM"]["bsr_fill_ratio"]
                / fmt["scrambled"]["bsr_fill_ratio"]
                if fmt["scrambled"]["bsr_fill_ratio"]
                else None
            ),
        },
        "checksum_sparsity_gain": {
            "scrambled": stats["scrambled"][0],
            "restored": stats["scrambled + RCM"][0],
        },
    }
    write_json(
        "reordering",
        {
            "benchmark": "reordering",
            "config": {
                "matrix": "bcsstk13",
                "n_rows": original.n_rows,
                "nnz": original.nnz,
                "block_size": BLOCK_SIZE,
                "scramble_seed": 17,
            },
            "orderings": orderings,
            "rcm_effect": rcm_effect,
            "asserted": {
                "scramble_inflates_checksum": True,
                "rcm_recovers_checksum": True,
                "rcm_recovers_overhead": True,
                "rcm_recovers_bsr_fill": True,
            },
            "env": bench_env(),
        },
    )

    # Scrambling inflates C and the overhead; RCM recovers most of it.
    assert stats["scrambled"][0] > 2.0 * stats["original (local)"][0]
    assert stats["scrambled + RCM"][0] < stats["scrambled"][0]
    assert stats["scrambled + RCM"][1] < stats["scrambled"][1]
    # Scrambling also destroys tile density; RCM restores locality, so the
    # probed BSR fill must recover alongside the checksum sparsity.
    assert (
        fmt["scrambled + RCM"]["bsr_fill_ratio"]
        > fmt["scrambled"]["bsr_fill_ratio"]
    )

    benchmark(lambda: reverse_cuthill_mckee(scrambled))
