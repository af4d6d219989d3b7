"""Command line of the ledger.

``python -m benchmarks.ledger --seed 0`` runs every workload untraced,
then traced, and prints each metric with its unit; an invocation that
makes more than one run writes ``BENCH_ledger.json`` to ``--out``
(default ``results/ledger``).  With ``--workload NAME --trace 0|1`` it
runs that one measurement and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and the declared metrics.
Exit status: 0 when every result checked out, 1 when one did not, 2 when
the configuration is unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
#: Seconds one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 20.0
SMOKE_SECONDS = 0.2


def repro_variables() -> List[str]:
    """``REPRO_*`` variables in the environment; each one changes the
    library's behaviour process-wide, so the ledger refuses to run."""
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


def _l3_bytes() -> Optional[int]:
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (ValueError, OSError):
        return None
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    size = libc.sysconf(194)  # glibc's _SC_LEVEL3_CACHE_SIZE
    return int(size) if size > 0 else None


def _git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> Dict[str, object]:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "git_commit": _git_commit(),
    }


def _print_run(run) -> None:
    from benchmarks.ledger.metrics import END_TO_END, PER_LAYER

    declared = PER_LAYER if run.tracer is not None else END_TO_END
    counts = run.counts
    print(
        f"{run.workload}: {'traced' if run.tracer is not None else 'untraced'}, "
        f"{counts['attempted']} ops in {run.rounds} rounds over {run.loop_seconds:.1f} s, "
        f"{counts['failed']} failed, {counts['wrong']} wrong, "
        f"{'correct' if run.correct else 'NOT CORRECT'}"
    )
    for metric in declared:
        print(f"  {metric.name:28s} {run.metrics[metric.name]:12.6g} {metric.unit}")


def _record(run) -> Dict[str, object]:
    counts = run.counts
    record = {
        "metrics": run.metrics,
        **counts,
        "failed_frac": counts["failed"] / counts["attempted"],
        "op_ms_p50": run.op_ms_p50,
        "rounds": run.rounds,
        "loop_seconds": run.loop_seconds,
        "correct": run.correct,
    }
    if run.tracer is not None:
        record["spans"] = len(run.tracer.spans)
        record["identity_broken"] = run.identity_broken
    return record


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from benchmarks.ledger.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS, help="measured seconds per run"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="only the untraced (0) or traced (1) run"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="a 0.2 s measurement with one setup per matrix"
    )
    parser.add_argument("--out", type=Path, default=ROOT / "results" / "ledger")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    variables = repro_variables()
    if variables:
        print(
            "refusing to run: these variables change the program under test: "
            + ", ".join(variables),
            file=sys.stderr,
        )
        return 2
    # One BLAS thread: the ledger measures a single caller, and an idle
    # BLAS pool thread only adds scheduling noise on a small machine.  Takes
    # effect when NumPy is first imported, just below.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    from benchmarks.ledger.runner import SETUP_REPEATS, SETUP_SECONDS, run
    from benchmarks.ledger.workloads import WORKLOADS

    args = parse(argv)
    seconds = min(args.seconds, SMOKE_SECONDS) if args.smoke else args.seconds
    repeats, setup_seconds = (1, 0.0) if args.smoke else (SETUP_REPEATS, SETUP_SECONDS)
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    runs = []
    for name in names:
        for traced in modes:
            workload = WORKLOADS[name](args.seed)
            outcome = run(workload, seconds, traced, repeats, setup_seconds)
            _print_run(outcome)
            if outcome.tracer is not None:
                outcome.tracer.dump(args.out / f"spans-{name}.jsonl")
            runs.append(outcome)

    if len(runs) == 1:
        print(json.dumps(runs[0].result_line()))
    else:
        ledger = {
            "seed": args.seed,
            "seconds": seconds,
            "setup_repeats": repeats,
            "setup_seconds": setup_seconds,
            "env": environment(),
            "workloads": {
                name: {
                    "why": WORKLOADS[name].why,
                    "matrices": next(r.matrices for r in runs if r.workload == name),
                    **{
                        ("traced" if r.tracer is not None else "untraced"): _record(r)
                        for r in runs if r.workload == name
                    },
                }
                for name in names
            },
        }
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "BENCH_ledger.json"
        path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if all(r.correct for r in runs) else 1
