"""Factories for the built-in protection schemes.

One factory per entry of :data:`repro.schemes.registry.BUILTIN_SCHEMES`.
Each threads the shared execution context (``AbftConfig``, machine model,
telemetry stream) into the scheme's constructor so every scheme runs
kernel-for-kernel on the same footing, and rejects options it does not
understand with :class:`~repro.errors.ConfigurationError`.

Imports of the scheme classes happen inside the factory bodies: the
registry must be importable from anywhere (including ``AbftConfig``
validation) without dragging in the core/baseline stacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.schemes.base import ProtectionScheme

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.config import AbftConfig
    from repro.machine import Machine
    from repro.obs import Telemetry
    from repro.sparse.csr import CsrMatrix


def _reject_unknown(
    scheme: str, options: Mapping[str, object], allowed: Tuple[str, ...] = ()
) -> None:
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"scheme {scheme!r} does not accept option(s) {unknown}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )


def make_abft(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """The paper's block-ABFT SpMV (:class:`repro.core.FaultTolerantSpMV`).

    Options: ``bound_override`` — an object exposing
    ``thresholds(beta, blocks)`` replacing the analytical bound.
    """
    _reject_unknown("abft", options, ("bound_override",))
    from repro.core.protected import FaultTolerantSpMV

    return FaultTolerantSpMV(
        matrix,
        config=config,
        machine=machine,
        telemetry=telemetry,
        bound_override=options.get("bound_override"),
    )


def make_vabft(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """Variance-adaptive block-ABFT
    (:class:`repro.schemes.vabft.VarianceAdaptiveSpMV`).

    Options: ``k_sigma`` (float), ``min_samples`` (int), ``warmup`` (int)
    — see the scheme class for semantics; defaults are the module
    constants in :mod:`repro.schemes.vabft`.
    """
    _reject_unknown("vabft", options, ("k_sigma", "min_samples", "warmup"))
    from repro.schemes.vabft import (
        DEFAULT_K_SIGMA,
        DEFAULT_MIN_SAMPLES,
        DEFAULT_WARMUP,
        VarianceAdaptiveSpMV,
    )

    k_sigma = options.get("k_sigma", DEFAULT_K_SIGMA)
    if not isinstance(k_sigma, (int, float)) or isinstance(k_sigma, bool):
        raise ConfigurationError(
            f"k_sigma must be a number, got {type(k_sigma).__name__}"
        )
    min_samples = options.get("min_samples", DEFAULT_MIN_SAMPLES)
    if not isinstance(min_samples, int) or isinstance(min_samples, bool):
        raise ConfigurationError(
            f"min_samples must be an int, got {type(min_samples).__name__}"
        )
    warmup = options.get("warmup", DEFAULT_WARMUP)
    if not isinstance(warmup, int) or isinstance(warmup, bool):
        raise ConfigurationError(
            f"warmup must be an int, got {type(warmup).__name__}"
        )
    return VarianceAdaptiveSpMV(
        matrix,
        config=config,
        machine=machine,
        telemetry=telemetry,
        k_sigma=float(k_sigma),
        min_samples=min_samples,
        warmup=warmup,
    )


def make_bisection(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """Dense check + bisection localization ([30]).

    Options: ``early_stop_fraction`` — fraction of the complete
    localization traversal to descend (default 0.4, the paper's setup).
    """
    _reject_unknown("bisection", options, ("early_stop_fraction",))
    from repro.baselines.bisection import DEFAULT_EARLY_STOP, PartialRecomputationSpMV

    early_stop = options.get("early_stop_fraction", DEFAULT_EARLY_STOP)
    if not isinstance(early_stop, float):
        raise ConfigurationError(
            f"early_stop_fraction must be a float, got {type(early_stop).__name__}"
        )
    return PartialRecomputationSpMV(
        matrix,
        machine=machine,
        max_rounds=config.max_correction_rounds,
        early_stop_fraction=early_stop,
        bound_scale=config.bound_scale,
        telemetry=telemetry,
    )


def make_complete(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """Dense check + complete recomputation ([31])."""
    _reject_unknown("complete", options)
    from repro.baselines.complete import CompleteRecomputationSpMV

    return CompleteRecomputationSpMV(
        matrix,
        machine=machine,
        max_rounds=config.max_correction_rounds,
        bound_scale=config.bound_scale,
        telemetry=telemetry,
    )


def make_dense_check(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """Detection-only dense check ([30]); cannot correct."""
    _reject_unknown("dense_check", options)
    from repro.baselines.dense_check import DenseCheckSpMV

    return DenseCheckSpMV(
        matrix,
        machine=machine,
        bound_scale=config.bound_scale,
        telemetry=telemetry,
    )


def make_checkpoint(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """Dense check + checkpoint/rollback signalling; the scheme's
    :class:`~repro.baselines.checkpoint.CheckpointStore` (``.store``)
    carries the snapshots the caller rolls back to."""
    _reject_unknown("checkpoint", options)
    from repro.baselines.checkpoint import CheckpointSpMV

    return CheckpointSpMV(
        matrix,
        machine=machine,
        bound_scale=config.bound_scale,
        telemetry=telemetry,
    )


def make_redundancy(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """Duplication with comparison (DWC)."""
    _reject_unknown("redundancy", options)
    from repro.baselines.redundancy import DwcSpMV

    return DwcSpMV(
        matrix,
        machine=machine,
        max_rounds=config.max_correction_rounds,
        telemetry=telemetry,
    )


def make_tmr(
    matrix: "CsrMatrix",
    *,
    config: "AbftConfig",
    machine: "Machine",
    telemetry: "Telemetry",
    **options: object,
) -> ProtectionScheme:
    """Triple modular redundancy."""
    _reject_unknown("tmr", options)
    from repro.baselines.redundancy import TmrSpMV

    return TmrSpMV(
        matrix,
        machine=machine,
        telemetry=telemetry,
    )
