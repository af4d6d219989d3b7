"""Sparse-format registry, selection heuristics and the dispatch protocol.

The kernel engine executes planned SpMVs against one of two storage
formats — ``"csr"`` (the paper's baseline and the library default) and
``"bsr"`` (dense tiles; wins on block-structured matrices) — plus the
pseudo-format ``"auto"`` which picks one at plan time from the BSR fill
ratio.  Names fold case and surrounding whitespace.

Selection follows the rule of :mod:`repro.registry` (first match wins):

1. an explicit ``sparse_format=`` argument to
   :meth:`repro.core.FaultTolerantSpMV.planned` or
   :class:`repro.perf.ProtectedPlan` — never overridden;
2. the :data:`FORMAT_ENV_VAR` environment variable (``REPRO_FORMAT``),
   which overrides any *configured* name process-wide;
3. ``AbftConfig.sparse_format``;
4. :data:`DEFAULT_FORMAT` (``"csr"`` — historic behavior: existing
   callers see bit-identical results until they opt in).

Auto-selection heuristic (each threshold is part of the documented
contract, tested in ``tests/sparse/test_formats.py``):

* BSR is chosen when some candidate tile edge in
  :data:`BSR_BLOCK_CANDIDATES` reaches a fill ratio of at least
  :data:`BSR_MIN_FILL` — below that, fill-slot arithmetic burns the tile
  pipeline's advantage (measured crossover on the benchmark hardware).
  Tile edges below 8 never pay for the gather/einsum overhead on the
  measured NumPy pipeline, which is why smaller candidates are not
  probed.
* Everything else falls back to CSR.

The choice is a pure function of the sparsity pattern: no timer is
read, so two plans built for one matrix always run the same format.
Probe and build share one tile pass per candidate edge
(:class:`~repro.sparse.bsr.TileLayout`): the winning edge's pass builds
the BSR storage, and a CSR verdict builds no tiles.

Every decision is recorded as a :class:`FormatChoice` (format, reason,
fill ratio, tile shape) which planned executors attach to the plan and
emit as ``plan.format`` telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.registry import Registry, Selector
from repro.sparse.bsr import BsrMatrix, TileLayout
from repro.sparse.csr import CsrMatrix

#: Environment variable that overrides the configured sparse format.
FORMAT_ENV_VAR = "REPRO_FORMAT"

#: Format used when neither a name nor the environment selects one.
DEFAULT_FORMAT = "csr"

#: Storage formats that ship with the library.
BUILTIN_FORMATS = ("csr", "bsr")

#: Pseudo-format: pick a storage format at plan time from the heuristics.
AUTO_FORMAT = "auto"

#: Names accepted by the format selector.
FORMAT_NAMES = BUILTIN_FORMATS + (AUTO_FORMAT,)

#: Tile edges probed by auto-selection.  Edges below 8 never recover the
#: gather/einsum overhead of the tile pipeline on the measured hardware
#: (a 4x4-tile FEM matrix runs ~0.8x CSR), so they are not candidates.
BSR_BLOCK_CANDIDATES = (8, 16)

#: Minimum BSR fill ratio for auto-selection.  Fill slots are computed
#: and discarded, so effective arithmetic scales with 1/fill; below ~0.85
#: the tile pipeline's win on block-structured matrices evaporates.
BSR_MIN_FILL = 0.85

@runtime_checkable
class SparseFormat(Protocol):
    """Structural protocol every dispatchable storage format satisfies.

    :class:`~repro.sparse.csr.CsrMatrix` and
    :class:`~repro.sparse.bsr.BsrMatrix` implement it; format selection
    and the planned executors program against this surface only.
    """

    format_name: str
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int: ...

    def matvec(self, b: np.ndarray) -> np.ndarray: ...

    def to_csr(self) -> CsrMatrix: ...


FormatMatrix = Union[CsrMatrix, BsrMatrix]


@dataclass(frozen=True)
class FormatChoice:
    """One plan-time format decision, with its evidence.

    Attributes:
        format: the storage format the plan executes (``csr``/``bsr``).
        requested: what the caller asked for (may be ``"auto"``).
        reason: one-line human-readable justification.
        fill_ratio: BSR fill ratio at ``block_shape`` (NaN when not probed).
        block_shape: tile shape used/probed for BSR, or None.
    """

    format: str
    requested: str
    reason: str
    fill_ratio: float = float("nan")
    block_shape: Optional[Tuple[int, int]] = None


def canonical_format_name(name: object) -> str:
    """Validate a format selection, returning its canonical name.

    Accepts the builtin storage formats plus ``"auto"``; anything else
    raises :class:`~repro.errors.ConfigurationError`.
    """
    return FORMAT_REGISTRY.canonical(name)


def available_formats() -> Tuple[str, ...]:
    """Selectable format names, sorted (storage formats plus ``auto``)."""
    return FORMAT_REGISTRY.available()


def resolve_format_name(
    configured: Optional[str] = None,
    explicit: Optional[str] = None,
    default: str = DEFAULT_FORMAT,
) -> str:
    """Resolve a format selection to a canonical name (maybe ``"auto"``).

    ``explicit`` (a programmatic argument) beats everything; the
    :data:`FORMAT_ENV_VAR` environment variable beats the ``configured``
    name (usually ``AbftConfig.sparse_format``); ``default`` applies last.
    """
    return FORMAT_SELECTOR.resolve(default if configured is None else configured, explicit)


# ----------------------------------------------------------------------
# Structural probes
# ----------------------------------------------------------------------
def bsr_fill_ratio(csr: CsrMatrix, block_shape: Union[int, Tuple[int, int]]) -> float:
    """Fill ratio a BSR conversion at ``block_shape`` would achieve.

    Counted by the tile pass of :class:`~repro.sparse.bsr.TileLayout`:
    O(nnz) plus a sort of the per-row tile runs, no tile materialization.
    """
    return TileLayout(csr, block_shape).fill_ratio


def probe_block_shape(
    csr: CsrMatrix,
    candidates: Tuple[int, ...] = BSR_BLOCK_CANDIDATES,
) -> Tuple[Tuple[int, int], float]:
    """Best square tile shape among ``candidates`` by fill ratio.

    Ties break toward the larger edge (fewer, larger tiles amortize the
    pipeline's per-tile overhead better).
    """
    layout = _densest_layout(csr, candidates)
    return layout.block_shape, layout.fill_ratio


def _densest_layout(
    csr: CsrMatrix, candidates: Tuple[int, ...] = BSR_BLOCK_CANDIDATES
) -> TileLayout:
    """The tile pass of the candidate edge with the highest fill ratio; a
    tie goes to the later (larger) edge.  Its :meth:`~TileLayout.to_bsr`
    builds the storage without a second pass."""
    best = TileLayout(csr, candidates[0])
    for edge in candidates[1:]:
        layout = TileLayout(csr, edge)
        if layout.fill_ratio >= best.fill_ratio:
            best = layout
    return best


# ----------------------------------------------------------------------
# Selection + construction
# ----------------------------------------------------------------------
def build_format(
    csr: CsrMatrix,
    sparse_format: str,
    block_shape: Optional[Union[int, Tuple[int, int]]] = None,
) -> FormatMatrix:
    """Materialize ``csr`` in a concrete storage format.

    ``block_shape`` applies to BSR only; None probes the candidates and
    takes the densest.  Unknown names raise
    :class:`~repro.errors.ConfigurationError`.
    """
    name = canonical_format_name(sparse_format)
    if name == "csr":
        return csr
    if name == "bsr":
        if block_shape is None:
            return _densest_layout(csr).to_bsr()
        return BsrMatrix.from_csr(csr, block_shape)
    raise ConfigurationError(
        f"{AUTO_FORMAT!r} is not a storage format; resolve it through "
        f"select_format() first"
    )


def select_format(csr: CsrMatrix, requested: str) -> Tuple[FormatChoice, FormatMatrix]:
    """Resolve ``requested`` to a concrete storage matrix plus the evidence.

    Explicit names are honored as-is (probing only to pick BSR's tile
    shape); ``"auto"`` applies the documented fill heuristic.  The choice
    is a pure function of the sparsity pattern: no timer is read.
    """
    requested = canonical_format_name(requested)

    if requested == "csr":
        return FormatChoice("csr", requested, "requested explicitly"), csr

    layout = _densest_layout(csr)
    block_shape, fill = layout.block_shape, layout.fill_ratio
    if requested == "bsr":
        choice = FormatChoice(
            "bsr", requested, "requested explicitly",
            fill_ratio=fill, block_shape=block_shape,
        )
        return choice, layout.to_bsr()

    # --- auto ---------------------------------------------------------
    tiles = f"{block_shape[0]}x{block_shape[1]} tiles"
    if fill < BSR_MIN_FILL:
        reason = (
            f"fill {fill:.2f} < {BSR_MIN_FILL} at {tiles}; CSR is the safe default"
            if csr.nnz
            else "empty matrix; CSR is the safe default"
        )
        choice = FormatChoice(
            "csr", requested, reason, fill_ratio=fill, block_shape=block_shape
        )
        return choice, csr

    choice = FormatChoice(
        "bsr", requested, f"fill {fill:.2f} >= {BSR_MIN_FILL} at {tiles}",
        fill_ratio=fill, block_shape=block_shape,
    )
    return choice, layout.to_bsr()


#: Selectable formats: the storage classes, and ``"auto"`` -> the selector.
FORMAT_REGISTRY: Registry[object] = Registry("sparse format", builtins=FORMAT_NAMES, fold=True)
for _name, _entry in zip(FORMAT_NAMES, (CsrMatrix, BsrMatrix, select_format)):
    FORMAT_REGISTRY.register(_entry, _name)

#: ``REPRO_FORMAT`` overrides ``AbftConfig.sparse_format``; an explicit
#: ``sparse_format=`` argument beats both.
FORMAT_SELECTOR = Selector("sparse_format", FORMAT_ENV_VAR, FORMAT_REGISTRY, DEFAULT_FORMAT)
