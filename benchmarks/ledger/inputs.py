"""Deterministic benchmark inputs.

Matrices are fixed: they depend on no seed.  Generating them is slow
(about 26 s for the Table I suite on a 2-CPU Xeon), so each is cached as an
``.npz`` file under ``.cache/`` beside this module, keyed by generator,
arguments and a digest of the generator sources; a changed generator
misses the cache instead of serving a stale matrix.  Nothing here is
timed.

Operands, right-hand sides, fault plans and solver seeds come from the
run's ``--seed`` through one NumPy stream per ``(seed, workload, matrix)``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Tuple

import numpy as np

import repro.sparse.csr
import repro.sparse.generators
import repro.sparse.suite
from repro.faults.bitflip import BURST_MEAN_BITS, BURST_VARIANCE_BITS
from repro.sparse.csr import CsrMatrix

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

#: Operands drawn per matrix; ops cycle through them.
OPERAND_POOL = 8
#: Fault plans (and PCG seeds) drawn per matrix; ops cycle through them.
PLAN_POOL = 256


def _source_digest() -> str:
    digest = hashlib.sha256()
    for module in (repro.sparse.csr, repro.sparse.generators, repro.sparse.suite):
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()[:12]


def cached_matrix(
    generator: str,
    args: Tuple[object, ...],
    build: Callable[[], CsrMatrix],
    cache_dir: Path = CACHE_DIR,
) -> CsrMatrix:
    """``build()``, loaded from ``cache_dir`` when an earlier run saved it."""
    key = "-".join([generator, *(str(arg) for arg in args), _source_digest()])
    path = cache_dir / f"{key}.npz"
    if path.exists():
        with np.load(path) as saved:
            return CsrMatrix(
                tuple(saved["shape"]), saved["indptr"], saved["indices"], saved["data"]
            )
    matrix = build()
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
    with partial.open("wb") as handle:
        np.savez(
            handle, shape=np.array(matrix.shape), indptr=matrix.indptr,
            indices=matrix.indices, data=matrix.data,
        )
    os.replace(partial, path)
    return matrix


def suite_matrix(name: str) -> CsrMatrix:
    """The synthetic Table I matrix ``name`` at the library's reduced scale."""
    return cached_matrix(
        "suite_matrix", (name,), lambda: repro.sparse.suite.suite_matrix(name)
    )


def fem_matrix(n_cells: int, block_edge: int) -> CsrMatrix:
    """A float32 ``block_stencil_spd`` FEM matrix (generator seed 0)."""
    return cached_matrix(
        "block_stencil_spd",
        (n_cells, block_edge, "float32"),
        lambda: repro.sparse.generators.block_stencil_spd(
            n_cells, block_edge, dtype=np.float32
        ),
    )


def stream(seed: int, workload: int, matrix: int) -> np.random.Generator:
    """The random stream of one matrix of one workload at ``seed``."""
    return np.random.default_rng([seed, workload, matrix])


def operands(rng: np.random.Generator, n: int, dtype: np.dtype) -> np.ndarray:
    """``OPERAND_POOL`` standard-normal operands of length ``n``, one per row."""
    return rng.standard_normal((OPERAND_POOL, n)).astype(dtype)


@dataclass(frozen=True)
class FaultPlan:
    """Per-op faults, cycled by op index (``PLAN_POOL`` entries).

    Every op adds ``10·‖b‖·(1 + magnitude_u)`` to result row ``row``.
    Half the entries, drawn at random, also flip a burst of ``width`` bits
    starting at bit ``position`` of block ``block_u·n_blocks`` of ``t1``
    (stage 1) or ``t2`` (stage 2); the rest have stage 0 (no burst).
    """

    row: np.ndarray
    magnitude_u: np.ndarray
    stage: np.ndarray
    block_u: np.ndarray
    position: np.ndarray
    width: np.ndarray


def fault_plan(rng: np.random.Generator, n_rows: int) -> FaultPlan:
    """Draw a :class:`FaultPlan`; bursts follow the paper's width model."""
    widths = np.rint(rng.normal(BURST_MEAN_BITS, np.sqrt(BURST_VARIANCE_BITS), PLAN_POOL))
    stage = rng.integers(1, 3, PLAN_POOL) * (rng.random(PLAN_POOL) < 0.5)
    return FaultPlan(
        row=rng.integers(0, n_rows, PLAN_POOL),
        magnitude_u=rng.random(PLAN_POOL),
        stage=stage,
        block_u=rng.random(PLAN_POOL),
        position=rng.integers(0, 64, PLAN_POOL),
        width=np.clip(widths, 1, 64).astype(np.int64),
    )


def solver_seeds(rng: np.random.Generator) -> np.ndarray:
    """``PLAN_POOL`` solver seeds (each also picks the solve's ``x0``)."""
    return rng.integers(0, 2**31 - 2, PLAN_POOL)
