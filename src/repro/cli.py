"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates the paper's tables and figures outside pytest, e.g.::

    python -m repro table1
    python -m repro fig5 --quick
    python -m repro pcg --runs 8 --rates 1e-8 1e-6 1e-4
    python -m repro all --quick --output results/
    python -m repro env

``--quick`` trades statistical weight for speed (suite subset, fewer
trials) — handy for smoke runs; the defaults match the benchmark harness.
``env`` prints how each of the four ``AbftConfig`` selectors resolves in
this process (value, and whether the environment or the default chose
it); it is not part of ``all``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, Sequence

from repro.analysis import (
    FIGURE4_BLOCK_SIZES,
    ablate_bounds,
    ablate_overlap,
    ablate_redundancy,
    render_bound_ablation,
    render_overlap_ablation,
    render_redundancy_ablation,
    FIGURE7_SIGMAS,
    PCG_ERROR_RATES,
    compare_correction_overheads,
    compare_coverage,
    compare_detection_overheads,
    format_table,
    render_block_size_sweep,
    render_correction_comparison,
    render_coverage_comparison,
    render_detection_comparison,
    render_pcg_cells,
    sweep_block_sizes,
    sweep_pcg,
)
from repro.schemes import DEFAULT_PCG_SCHEMES
from repro.solvers import FtPcgOptions
from repro.sparse import QUICK_SUITE, iter_suite

#: PCG case-study subset (matches benchmarks/conftest.py).
PCG_MATRICES = ("nos3", "bcsstk21", "bcsstk11", "ex3")


def _load_suite(args: argparse.Namespace):
    names = QUICK_SUITE if args.quick else None
    return list(iter_suite(full_scale=args.full_scale, names=names))


def _emit(args: argparse.Namespace, name: str, text: str) -> None:
    print(text)
    if args.output is not None:
        directory = Path(args.output)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.txt").write_text(text + "\n")
        print(f"[written to {directory / (name + '.txt')}]")


def cmd_table1(args: argparse.Namespace) -> None:
    rows = [
        (
            spec.name,
            spec.n,
            spec.nnz,
            f"{100.0 * spec.zero_fraction:.2f}%",
            matrix.n_rows,
            matrix.nnz,
        )
        for spec, matrix in _load_suite(args)
    ]
    _emit(
        args,
        "table1",
        format_table(
            ("name", "N (paper)", "NNZ (paper)", "zeros (paper)", "N (ours)", "NNZ (ours)"),
            rows,
            title="Table I — evaluated matrices",
        ),
    )


def cmd_fig4(args: argparse.Namespace) -> None:
    sweep = sweep_block_sizes(_load_suite(args), block_sizes=FIGURE4_BLOCK_SIZES)
    _emit(args, "fig4", render_block_size_sweep(sweep))


def cmd_fig5(args: argparse.Namespace) -> None:
    comparison = compare_detection_overheads(_load_suite(args))
    _emit(args, "fig5", render_detection_comparison(comparison))


def cmd_fig6(args: argparse.Namespace) -> None:
    trials = 4 if args.quick else args.trials
    comparison = compare_correction_overheads(
        _load_suite(args), trials=trials, seed=args.seed
    )
    _emit(args, "fig6", render_correction_comparison(comparison))


def cmd_fig7(args: argparse.Namespace) -> None:
    trials = 30 if args.quick else args.trials
    comparison = compare_coverage(
        _load_suite(args), sigmas=FIGURE7_SIGMAS, trials=trials, seed=args.seed
    )
    _emit(args, "fig7", render_coverage_comparison(comparison))


def cmd_pcg(args: argparse.Namespace) -> None:
    suite = list(iter_suite(names=PCG_MATRICES[:2] if args.quick else PCG_MATRICES))
    schemes = DEFAULT_PCG_SCHEMES
    rates = tuple(args.rates) if args.rates else PCG_ERROR_RATES
    runs = 2 if args.quick else args.runs
    cells = sweep_pcg(
        suite,
        schemes=schemes,
        error_rates=rates,
        runs=runs,
        seed=args.seed,
        options=FtPcgOptions(max_iteration_factor=3),
    )
    _emit(args, "fig8_fig9", render_pcg_cells(cells, schemes=schemes, rates=rates))


def cmd_ablations(args: argparse.Namespace) -> None:
    suite = list(iter_suite(names=QUICK_SUITE))
    trials = 30 if args.quick else max(args.trials * 10, 120)
    bounds = ablate_bounds(suite, trials=trials)
    overlap = ablate_overlap(suite)
    redundancy = ablate_redundancy(suite)
    text = "\n\n".join(
        [
            render_bound_ablation(bounds),
            render_overlap_ablation(overlap),
            render_redundancy_ablation(redundancy),
        ]
    )
    _emit(args, "ablations", text)


def cmd_env(args: argparse.Namespace) -> None:
    from repro.core.config import selectors

    rows = [(s.name, s.env_var, s.resolve(), s.pick()[1]) for s in selectors()]
    print(format_table(("selector", "env var", "value", "source"), rows))


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "table1": cmd_table1,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "pcg": cmd_pcg,
    "ablations": cmd_ablations,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the DSN 2016 ABFT paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all", "env"],
        help="which experiment to run ('all' runs every one; 'env' prints "
        "the resolved selectors)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small suite subset and few trials (smoke run)",
    )
    parser.add_argument(
        "--full-scale", action="store_true",
        help="use the paper's full matrix dimensions even for the largest",
    )
    parser.add_argument("--trials", type=int, default=12, help="injection trials per matrix")
    parser.add_argument("--runs", type=int, default=4, help="PCG runs per (scheme, rate) cell")
    parser.add_argument(
        "--rates", type=float, nargs="+", default=None,
        help="error rates for the PCG sweep (default: 1e-8..1e-4)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--output", type=str, default=None,
        help="directory to write rendered tables into (printed regardless)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "env":
        cmd_env(args)
    elif args.experiment == "all":
        for name in sorted(COMMANDS):
            print(f"=== {name} ===")
            COMMANDS[name](args)
    else:
        COMMANDS[args.experiment](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
