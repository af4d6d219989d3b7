"""SHA-256 digests of the checksum matrix ``C`` the vectorized encoder builds.

Each digest covers the bytes of ``C``'s ``indptr``, ``indices`` and
``data``; the record keeps ``data``'s dtype beside it.  The inputs are the
25 synthetic Table I matrices and the two float32 ``block_stencil_spd``
FEM matrices of the ledger's ``fem_f32`` workload, each at block sizes 8,
32 and 128 with the ``ones``, ``linear`` and ``random`` weights: 243
digests.  ``tests/core/golden/checksum_digests.json`` holds the digests of
the encoder that grouped ``C`` through a sorted COO round trip; an encoder
change must reproduce every one of them.

    PYTHONPATH=src python tools/checksum_digests.py --check    # diff the golden
    PYTHONPATH=src python tools/checksum_digests.py \
        > tests/core/golden/checksum_digests.json                # record it

Generating all 27 matrices takes about half a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocking import BlockPartition
from repro.core.checksum import make_weights
from repro.kernels import VectorizedKernels
from repro.sparse.csr import CsrMatrix
from repro.sparse.generators import block_stencil_spd
from repro.sparse.suite import SUITE_SPECS, suite_matrix

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "core" / "golden" / "checksum_digests.json"

BLOCK_SIZES = (8, 32, 128)
WEIGHT_KINDS = ("ones", "linear", "random")

#: The fem_f32 workload's matrices: (cells, block edge) of a float32 stencil.
FEM_MATRICES = {"fem_6000x8": (6000, 8), "fem_3000x16": (3000, 16)}


def _builders() -> Dict[str, Callable[[], CsrMatrix]]:
    builders: Dict[str, Callable[[], CsrMatrix]] = {
        spec.name: (lambda name=spec.name: suite_matrix(name)) for spec in SUITE_SPECS
    }
    for name, (cells, edge) in FEM_MATRICES.items():
        builders[name] = lambda cells=cells, edge=edge: block_stencil_spd(
            cells, edge, dtype=np.float32
        )
    return builders


MATRIX_NAMES: Tuple[str, ...] = tuple(_builders())


def digest(checksum: CsrMatrix) -> Dict[str, str]:
    """The record of one ``C``: its data dtype and the SHA-256 of its arrays."""
    sha = hashlib.sha256()
    for array in (checksum.indptr, checksum.indices, checksum.data):
        sha.update(np.ascontiguousarray(array).tobytes())
    return {"dtype": str(checksum.data.dtype), "sha256": sha.hexdigest()}


def digests(names: Optional[Iterable[str]] = None) -> Dict[str, Dict[str, str]]:
    """Records keyed ``"<matrix>/<block size>/<weights>"`` for ``names``
    (``MATRIX_NAMES`` when None), in input order."""
    builders = _builders()
    selected = MATRIX_NAMES if names is None else tuple(names)
    kernels = VectorizedKernels()
    records: Dict[str, Dict[str, str]] = {}
    for name in selected:
        matrix = builders[name]()
        for block_size in BLOCK_SIZES:
            partition = BlockPartition(matrix.n_rows, block_size)
            for kind in WEIGHT_KINDS:
                weights = make_weights(kind, partition)
                checksum = kernels.encode(matrix, partition, weights)
                records[f"{name}/{block_size}/{kind}"] = digest(checksum)
    return records


def differences(
    actual: Dict[str, Dict[str, str]], golden: Dict[str, Dict[str, str]]
) -> List[str]:
    """One line per key whose record differs from, or is missing in, ``golden``."""
    return [
        f"{key}: {record} != {golden.get(key)}"
        for key, record in actual.items()
        if golden.get(key) != record
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="diff against the golden file")
    args = parser.parse_args(argv)
    records = digests()
    if args.check:
        failed = differences(records, json.loads(GOLDEN.read_text()))
        for line in failed:
            print(line)
        print(f"{len(records) - len(failed)} of {len(records)} digests match {GOLDEN}")
        return 1 if failed else 0
    print(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
