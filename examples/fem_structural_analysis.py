"""Fault-tolerant structural-mechanics solve (the paper's motivating domain).

Discretizes a 2-D Laplace problem (the canonical stand-in for the FEM
stiffness systems of Section III-E / [16]), then solves it with the
Preconditioned Conjugate Gradient method under increasingly hostile
transient-error rates, comparing all four fault-tolerance strategies of the
paper's case study:

* unprotected PCG,
* the proposed block-ABFT-protected PCG,
* dense check + bisection partial recomputation [30],
* dense check + checkpoint/rollback (20-iteration interval).

Run:  python examples/fem_structural_analysis.py
"""

import numpy as np

from repro.solvers import run_pcg
from repro.sparse import poisson2d


def main() -> None:
    # 40x40 grid -> 1600 unknowns; SPD 5-point stencil stiffness matrix.
    matrix = poisson2d(40)
    rng = np.random.default_rng(11)
    displacement_true = rng.standard_normal(matrix.n_rows)
    load = matrix.matvec(displacement_true)
    print(f"FEM system: n={matrix.n_rows}, nnz={matrix.nnz}")

    schemes = ("unprotected", "abft", "bisection", "checkpoint")
    rates = (0.0, 1e-7, 1e-6, 1e-5)
    runs_per_cell = 5

    baseline = run_pcg(matrix, load, scheme="unprotected", error_rate=0.0, seed=0)
    print(
        f"fault-free reference: {baseline.iterations} iterations, "
        f"simulated {baseline.seconds * 1e3:.2f} ms\n"
    )

    header = f"{'scheme':14s}" + "".join(f"  lam={rate:<8g}" for rate in rates)
    print(header)
    print("-" * len(header))
    for scheme in schemes:
        cells = []
        for rate in rates:
            correct = 0
            seconds = []
            for seed in range(runs_per_cell):
                result = run_pcg(
                    matrix, load, scheme=scheme, error_rate=rate, seed=seed
                )
                correct += result.correct
                if result.correct:
                    seconds.append(result.seconds)
            if seconds:
                overhead = np.mean(seconds) / baseline.seconds - 1.0
                cells.append(f"{correct}/{runs_per_cell} ({overhead:+.0%})")
            else:
                cells.append(f"{correct}/{runs_per_cell} (-)")
        print(f"{scheme:14s}" + "".join(f"  {cell:12s}" for cell in cells))

    print(
        "\ncells show: correct solves / attempts (runtime overhead vs the"
        " fault-free unprotected solve, successful runs only)"
    )


if __name__ == "__main__":
    main()
