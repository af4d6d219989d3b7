"""Tuning the ABFT block size for a workload (the paper's Figure 4 study).

The block size ``b_s`` trades the operand-checksum cost ``t1 = C b``
(cheaper with large blocks — fewer checksum rows) against the result-
checksum reduction depth (cheaper with small blocks).  This example sweeps
``b_s`` for a few matrices of different sizes on the simulated K80 machine
and prints where the detection-overhead minimum lands, plus how the
checksum matrix's sparsity responds.

Run:  python examples/block_size_tuning.py
"""

from repro.analysis import detection_overhead
from repro.core import ChecksumMatrix
from repro.sparse import iter_suite

BLOCK_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
MATRICES = ("nos3", "bcsstk13", "s3rmt3m3", "msc10848")


def main() -> None:
    print(f"{'matrix':12s} {'nnz':>9s}  " + "".join(f"{bs:>8d}" for bs in BLOCK_SIZES))
    best = {}
    for spec, matrix in iter_suite(names=MATRICES):
        overheads = [
            detection_overhead(matrix, "abft", block_size=bs) for bs in BLOCK_SIZES
        ]
        best[spec.name] = BLOCK_SIZES[overheads.index(min(overheads))]
        row = "".join(f"{o:8.1%}" for o in overheads)
        print(f"{spec.name:12s} {matrix.nnz:>9d}  {row}")

    print("\nchecksum-matrix sparsity nnz(C)/nnz(A):")
    print(f"{'matrix':12s}  " + "".join(f"{bs:>8d}" for bs in BLOCK_SIZES))
    for spec, matrix in iter_suite(names=MATRICES):
        gains = [
            ChecksumMatrix.build(matrix, block_size=bs).sparsity_gain
            for bs in BLOCK_SIZES
        ]
        print(f"{spec.name:12s}  " + "".join(f"{g:8.2f}" for g in gains))

    print("\nper-matrix optimal block sizes:", best)
    print("the paper settles on b_s = 32 for the whole suite (Section V-A)")


if __name__ == "__main__":
    main()
