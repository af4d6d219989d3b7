"""Configuration of the block-ABFT scheme."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.kernels.base import DEFAULT_KERNEL
from repro.obs.exporters import DEFAULT_EXPORTER, TELEMETRY_SELECTOR
from repro.registry import Selector

#: Double-precision machine epsilon used by the rounding-error bounds
#: (the paper's eps_M = 2^-53, Section III-C).
MACHINE_EPSILON = 2.0**-53

#: The paper's empirically optimal block size (Section V-A, Figure 4).
DEFAULT_BLOCK_SIZE = 32

#: Supported rounding-error bounds (see repro.core.bounds).
BOUND_KINDS = ("sparse", "dense", "norm")

#: Supported weight-vector schemes (see repro.core.checksum).
WEIGHT_KINDS = ("ones", "linear", "random")


@dataclass(frozen=True)
class AbftConfig:
    """Parameters of the fault-tolerant SpMV.

    Attributes:
        block_size: rows per checksum block (b_s); the paper sweeps 1..512
            and settles on 32.
        bound: rounding-error bound family — ``"sparse"`` is the paper's
            per-block analytical bound, ``"dense"`` the Roy-Chowdhury &
            Banerjee whole-matrix bound, ``"norm"`` the ||b||_2 bound of
            Sloan et al. (the last two exist for ablation/baselines).
        weights: weight-vector scheme; the paper uses all-ones.
        bound_scale: multiplier on the bound (1.0 = as derived); exposed
            for the bound-tightness ablation.
        max_correction_rounds: verification/correction iterations before a
            protected multiply gives up (errors can hit corrections too).
        kernel: name of the kernel set executing the hot paths (see
            :mod:`repro.kernels`).  The library has one, so
            ``"vectorized"`` is the only value accepted.
        telemetry: exporter name receiving protocol telemetry
            (see :mod:`repro.obs`); ``"off"`` (the default) disables all
            instrumentation down to a single guard per update site.  The
            ``REPRO_OBS`` environment variable overrides it process-wide.
        scheme: protection-scheme name (see
            :mod:`repro.schemes`) used when a caller asks for a default
            scheme; None keeps the library default (``"abft"``).  The
            ``REPRO_SCHEME`` environment variable overrides *defaulted*
            selections process-wide.
        parallel: plan-execution backend name (see
            :mod:`repro.perf.backends`) used by planned protected
            multiplies: ``"serial"`` or ``"threads"``.  None keeps the
            default (``"serial"``).  The backend also sets the shard
            count of a plan built by ``planned()``: one for serial, one
            per worker for threads.  The
            ``REPRO_PARALLEL`` environment variable overrides it
            process-wide; an explicit ``ProtectedPlan(parallel=...)``
            argument beats both.
        sparse_format: storage format planned protected multiplies run
            on (see :mod:`repro.sparse.formats`): ``"csr"``, ``"bsr"``,
            or ``"auto"`` to let the plan choose between them by BSR
            fill at plan time.  None keeps the library default
            (``"csr"``).  The ``REPRO_FORMAT`` environment variable
            overrides *configured* names process-wide; an explicit
            ``sparse_format=`` argument to a planned entry point beats
            both.  ``FaultTolerantSpMV.multiply`` always runs its own
            one-shard serial CSR plan.
        dtype: has no effect: the bounds' unit roundoff follows the
            matrix's storage dtype (:func:`repro.core.bounds.unit_roundoff`).
            Kept for callers that name the storage dtype they build,
            so only None, ``"float64"`` and ``"float32"`` are accepted.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    bound: str = "sparse"
    weights: str = "ones"
    bound_scale: float = 1.0
    max_correction_rounds: int = 8
    kernel: str = DEFAULT_KERNEL
    telemetry: str = DEFAULT_EXPORTER
    scheme: Optional[str] = None
    parallel: Optional[str] = None
    sparse_format: Optional[str] = None
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")
        if self.bound not in BOUND_KINDS:
            raise ConfigurationError(
                f"unknown bound {self.bound!r}; expected one of {BOUND_KINDS}"
            )
        if self.weights not in WEIGHT_KINDS:
            raise ConfigurationError(
                f"unknown weights {self.weights!r}; expected one of {WEIGHT_KINDS}"
            )
        if self.bound_scale <= 0:
            raise ConfigurationError(f"bound_scale must be positive, got {self.bound_scale}")
        if self.max_correction_rounds < 1:
            raise ConfigurationError(
                f"max_correction_rounds must be >= 1, got {self.max_correction_rounds}"
            )
        if self.kernel != DEFAULT_KERNEL:
            raise ConfigurationError(
                f"AbftConfig.kernel must be {DEFAULT_KERNEL!r}, got {self.kernel!r}"
            )
        if self.dtype not in (None, "float64", "float32"):
            raise ConfigurationError(
                "AbftConfig.dtype must be None, 'float64' or 'float32', "
                f"got {self.dtype!r}"
            )
        for selector in selectors():
            selector.check(getattr(self, selector.name), "AbftConfig")


def selectors() -> Tuple[Selector, ...]:
    """The four selectors behind :class:`AbftConfig`'s name fields, in
    field order (each selector's ``name`` is its field)."""
    # Lazy imports: these subsystems import this module.
    from repro.perf.backends import BACKEND_SELECTOR
    from repro.schemes.registry import SCHEME_SELECTOR
    from repro.sparse.formats import FORMAT_SELECTOR

    return (TELEMETRY_SELECTOR, SCHEME_SELECTOR, BACKEND_SELECTOR, FORMAT_SELECTOR)
