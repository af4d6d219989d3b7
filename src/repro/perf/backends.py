"""Named execution backends for the planned protected SpMV.

A :class:`~repro.perf.plan.ProtectedPlan` separates *what* each shard
computes (the fused SpMV + checksum + comparison pipeline, bit-identical
across every execution strategy) from *where* the shards run.  The
latter is its **backend**, one of two names.  Backends only detect:
every flagged block is corrected in the calling thread, whatever the
backend.

* ``"serial"`` — shards run one after another in the calling thread
  (the reference semantics the threads backend is differentially tested
  against);
* ``"threads"`` — the plan fans its shards out on a process-wide
  :class:`~concurrent.futures.ThreadPoolExecutor` (:func:`get_executor`),
  one thread per shard.  NumPy releases the GIL inside the ufunc inner
  loops, but the Python-level fan-out still serializes on it — threads
  win only for mid-size inputs.

Selection follows the rule of :mod:`repro.registry`: a name is chosen
via ``AbftConfig(parallel=...)``, overridden process-wide by the
:data:`BACKEND_ENV_VAR` environment variable (``REPRO_PARALLEL``), with
an explicit ``parallel=`` argument to
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
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.registry import Registry, Selector

#: Environment variable overriding the configured backend process-wide.
BACKEND_ENV_VAR = "REPRO_PARALLEL"

#: Backend used when neither code nor the environment selects one.
DEFAULT_BACKEND = "serial"

#: Backends that ship with the library: the keys of :data:`BACKEND_REGISTRY`.
BUILTIN_BACKENDS = ("serial", "threads")

#: Upper bound on the default worker count of the threads backend.
DEFAULT_MAX_WORKERS = 4

_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def default_workers() -> int:
    """Worker count of the threads backend: one per CPU, at most
    :data:`DEFAULT_MAX_WORKERS`."""
    return min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1)


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


#: Each backend's default shard count (:func:`default_shard_count`), by name.
BACKEND_REGISTRY: Registry[Callable[[], int]] = Registry(
    "backend", dict(zip(BUILTIN_BACKENDS, (lambda: 1, default_workers))))

#: ``REPRO_PARALLEL`` overrides ``AbftConfig.parallel``; ``ProtectedPlan(parallel=...)`` beats both.
BACKEND_SELECTOR = Selector("parallel", BACKEND_ENV_VAR, BACKEND_REGISTRY, DEFAULT_BACKEND)


def default_shard_count(backend_name: str) -> int:
    """Shards a plan gets when its caller does not choose a count.

    ``"serial"`` gets one (there is nothing to fan out to); ``"threads"``
    gets :func:`default_workers`, one shard per worker.
    """
    return BACKEND_REGISTRY.get(backend_name)()


def available_backends() -> Tuple[str, ...]:
    """Backend names, sorted."""
    return BACKEND_REGISTRY.available()


def canonical_backend_name(name: str) -> str:
    """Validate ``name`` against the table and return it."""
    return BACKEND_REGISTRY.canonical(name)


def resolve_backend_name(
    configured: Optional[str],
    explicit: Optional[str] = None,
    default: str = DEFAULT_BACKEND,
) -> str:
    """Resolve a backend selection to a backend name.

    Follows the selection rule of :mod:`repro.registry`: an ``explicit``
    name passed in code (tests pinning a backend), then the
    :data:`BACKEND_ENV_VAR` environment variable, then the
    ``configured`` name (``AbftConfig.parallel``), then ``default``.
    """
    return BACKEND_SELECTOR.resolve(default if configured is None else configured, explicit)
