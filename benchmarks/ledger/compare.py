"""Repeatability check between two ledger files.

    python -m benchmarks.ledger.compare A.json B.json

Prints every (workload, end-to-end metric) pair of two
``BENCH_ledger.json`` files with both values, the relative difference
``(B - A) / A`` and the declared bound, and exits 1 when any pair differs
by more than its bound in either direction (a pair missing from either
file also fails).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.ledger.metrics import END_TO_END


def _values(path: Path) -> Dict[str, Dict[str, float]]:
    ledger = json.loads(path.read_text())
    return {
        name: entry["untraced"]["metrics"]
        for name, entry in ledger["workloads"].items()
        if "untraced" in entry
    }


def compare(a: Dict[str, Dict[str, float]], b: Dict[str, Dict[str, float]]) -> List[str]:
    """One line per pair; a line starting with ``FAIL`` is out of bound."""
    lines = []
    for workload in sorted(set(a) | set(b)):
        for metric in END_TO_END:
            left = a.get(workload, {}).get(metric.name)
            right = b.get(workload, {}).get(metric.name)
            if left is None or right is None:
                lines.append(f"FAIL {workload:8s} {metric.name:13s} missing in one file")
                continue
            relative = (right - left) / left
            verdict = "FAIL" if abs(relative) > metric.bound else "ok  "
            lines.append(
                f"{verdict} {workload:8s} {metric.name:13s} {left:12.6g} {right:12.6g} "
                f"{relative:+8.2%}  bound ±{metric.bound:.0%} {metric.unit}"
            )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = compare(_values(Path(args[0])), _values(Path(args[1])))
    print("\n".join(lines))
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
