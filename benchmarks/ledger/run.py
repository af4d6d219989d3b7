"""Run the ledger from a plain checkout, without ``PYTHONPATH``::

    python3 benchmarks/ledger/run.py --workload suite --seed 0 --seconds 12 --trace 0

Puts the checkout root and its ``src`` first on ``sys.path`` and hands
over to :func:`benchmarks.ledger.cli.main`.  Exits with status 2, printing
no result, when the checkout has no ``src/repro`` to measure.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no library to measure: {root / 'src' / 'repro'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[0:1] = [str(root / "src"), str(root)]
    from benchmarks.ledger.cli import main

    sys.exit(main())
