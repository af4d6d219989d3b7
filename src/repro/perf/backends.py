"""Named execution backends for the planned protected SpMV.

A :class:`~repro.perf.plan.ProtectedPlan` separates *what* each shard
computes (the fused SpMV + checksum + comparison pipeline, bit-identical
across every execution strategy) from *where* the shards run.  The
latter is a registered **backend**.  Backends only detect: every flagged
block is corrected in the calling process, whatever the backend.

* ``"serial"`` — shards run one after another in the calling thread
  (the reference semantics the threads backend is differentially tested
  against);
* ``"threads"`` — shards fan out on a process-wide
  :class:`~concurrent.futures.ThreadPoolExecutor` (:func:`get_executor`),
  one thread per shard.  NumPy releases the GIL inside the ufunc inner
  loops, but the Python-level fan-out still serializes on it — threads
  win only for mid-size inputs.

Selection follows the rule of :mod:`repro.registry`: a
registered name is chosen via ``AbftConfig(parallel=...)``, overridden
process-wide by the :data:`BACKEND_ENV_VAR` environment variable
(``REPRO_PARALLEL``), with an explicit ``parallel=`` argument to
:class:`~repro.perf.plan.ProtectedPlan` beating both (tests pin a
backend regardless of the environment that way).  When nothing chooses,
plans run ``"serial"``.

The resolved backend also decides how many shards a plan gets when its
caller does not say (:func:`default_shard_count`): one for ``"serial"``,
:func:`default_workers` for ``"threads"``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.registry import Registry, Selector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.obs import Telemetry
    from repro.perf.plan import ProtectedPlan

#: Environment variable overriding the configured backend process-wide.
BACKEND_ENV_VAR = "REPRO_PARALLEL"

#: Backend used when neither code nor the environment selects one.
DEFAULT_BACKEND = "serial"

#: Names that ship built in (and cannot be unregistered).
BUILTIN_BACKENDS = ("serial", "threads")

#: Upper bound on the default worker count of the threads backend.
DEFAULT_MAX_WORKERS = 4

_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def default_workers() -> int:
    """Worker count of the threads backend: one per CPU, at most
    :data:`DEFAULT_MAX_WORKERS`."""
    return min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1)


def default_shard_count(backend_name: str) -> int:
    """Shards a plan gets when its caller does not choose a count.

    ``"serial"`` gets one (there is nothing to fan out to); every other
    backend gets :func:`default_workers`, one shard per worker.
    """
    return 1 if backend_name == "serial" else default_workers()


def get_executor(n_workers: int) -> ThreadPoolExecutor:
    """Process-wide thread pool for ``n_workers`` (created lazily, reused),
    so repeated threaded multiplies never pay thread start-up costs."""
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(n_workers)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix=f"repro-plan{n_workers}"
            )
            _EXECUTORS[n_workers] = executor
        return executor


class PlanBackend:
    """Execution strategy bound to one plan.  The base class is serial.

    :meth:`run_detect` executes the fused per-shard detect tasks.
    Implementations may distribute them anywhere but must preserve the
    per-shard math bit for bit (the cross-backend differential matrix
    enforces this).
    """

    def __init__(self, plan: "ProtectedPlan") -> None:
        self.plan = plan

    @property
    def parallel_active(self) -> bool:
        """Whether the plan should take the fused multi-shard path."""
        return False

    def run_detect(self, b: np.ndarray, telemetry: "Telemetry") -> None:
        """Run every shard's fused detect task."""
        for i in range(self.plan.spmv.n_shards):
            self.plan._detect_shard(i, b, telemetry)


class ThreadsBackend(PlanBackend):
    """Shard fan-out on the shared thread pool, one thread per shard."""

    @property
    def parallel_active(self) -> bool:
        return True

    @property
    def n_workers(self) -> int:
        return max(1, self.plan.spmv.n_shards)

    def run_detect(self, b: np.ndarray, telemetry: "Telemetry") -> None:
        executor = get_executor(self.n_workers)
        futures = [
            executor.submit(self.plan._detect_shard, i, b, telemetry)
            for i in range(self.plan.spmv.n_shards)
        ]
        for future in futures:
            future.result()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
BackendFactory = Callable[["ProtectedPlan"], PlanBackend]

#: Backend factories by name.
BACKEND_REGISTRY: Registry[BackendFactory] = Registry("backend", builtins=BUILTIN_BACKENDS)

#: ``REPRO_PARALLEL`` overrides ``AbftConfig.parallel``; ``ProtectedPlan(parallel=...)`` beats both.
BACKEND_SELECTOR = Selector("parallel", BACKEND_ENV_VAR, BACKEND_REGISTRY, DEFAULT_BACKEND)


def register_backend(name: str, factory: BackendFactory, overwrite: bool = False) -> None:
    """Register a plan-backend factory under ``name``.

    The factory is called as ``factory(plan)`` and must return a
    :class:`PlanBackend` bound to that plan.
    """
    BACKEND_REGISTRY.register(factory, name, overwrite)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (built-ins are protected)."""
    BACKEND_REGISTRY.unregister(name)


def available_backends() -> Tuple[str, ...]:
    """Sorted names of all registered backends."""
    return BACKEND_REGISTRY.available()


def canonical_backend_name(name: str) -> str:
    """Validate ``name`` against the registry and return it."""
    return BACKEND_REGISTRY.canonical(name)


def resolve_backend_name(
    configured: Optional[str],
    explicit: Optional[str] = None,
    default: str = DEFAULT_BACKEND,
) -> str:
    """Resolve a backend selection to a registered name.

    Follows the selection rule of :mod:`repro.registry`: an ``explicit``
    name passed in code (tests pinning a backend), then the
    :data:`BACKEND_ENV_VAR` environment variable, then the
    ``configured`` name (``AbftConfig.parallel``), then ``default``.
    """
    return BACKEND_SELECTOR.resolve(default if configured is None else configured, explicit)


def make_backend(name: str, plan: "ProtectedPlan") -> PlanBackend:
    """Instantiate the named backend for ``plan``."""
    return BACKEND_REGISTRY.get(name)(plan)


register_backend("serial", PlanBackend)
register_backend("threads", ThreadsBackend)
