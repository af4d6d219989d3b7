"""The telemetry facade: instruments + span tracer + exporter, one object.

A :class:`Telemetry` owns an instrument :class:`~repro.obs.instruments.Registry`
and one exporter; every counter increment, gauge set, histogram
observation and completed span both updates the in-process aggregate and
emits a structured event.  The hot paths hold a ``Telemetry`` reference
and guard every update with a single ``if telemetry.enabled`` check, so
the disabled path (the default) costs one attribute read.

Time comes from an injectable monotonic clock (``time.perf_counter`` by
default): tests inject a fake clock and get bit-identical event streams
from identical seeded runs.

Resolution follows the selection rule of :mod:`repro.registry`:

1. an explicit :class:`Telemetry` instance passes through untouched;
2. the ``REPRO_OBS`` environment variable overrides any *name*;
3. the name passed in (usually ``AbftConfig.telemetry``);
4. :data:`~repro.obs.exporters.DEFAULT_EXPORTER` (``"off"``).

Name-resolved telemetries are cached process-wide, so a detector, the
protected multiply around it and the PCG loop above both — all configured
``"jsonl"`` — share one event stream.
"""

from __future__ import annotations

import threading
import time
from types import TracebackType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import ConfigurationError
from repro.kernels.base import KernelSet
from repro.obs.exporters import (
    EXPORTER_REGISTRY,
    TELEMETRY_SELECTOR,
    Event,
    Exporter,
    ExporterFactory,
    InMemoryExporter,
    NullExporter,
    make_exporter,
)
from repro.obs.instruments import (
    DEFAULT_TIME_BUCKETS,
    Registry,
)

#: Injectable monotonic clock type.
Clock = Callable[[], float]

#: Attribute values accepted on events (JSON-scalar only).
AttrValue = Union[str, int, float, bool, None]


class _NullSpan:
    """Reusable no-op context manager returned by disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One in-flight traced region; created by :meth:`Telemetry.span`.

    On exit it records the wall time into the ``span.<name>.seconds``
    histogram and emits a ``span`` event carrying start/end times,
    nesting depth and the parent span's name.
    """

    __slots__ = ("_telemetry", "name", "attrs", "start", "depth", "parent")

    def __init__(
        self, telemetry: "Telemetry", name: str, attrs: Dict[str, AttrValue]
    ) -> None:
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.depth = 0
        self.parent: Optional[str] = None

    def __enter__(self) -> "Span":
        telemetry = self._telemetry
        stack = telemetry._span_stack
        self.parent = stack[-1].name if stack else None
        self.depth = len(stack)
        stack.append(self)
        self.start = telemetry._clock()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        telemetry = self._telemetry
        end = telemetry._clock()
        telemetry._span_stack.pop()
        telemetry.registry.histogram(
            f"span.{self.name}.seconds", DEFAULT_TIME_BUCKETS
        ).observe(end - self.start)
        event: Event = {
            "type": "span",
            "name": self.name,
            "start": self.start,
            "end": end,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": self.attrs,
        }
        telemetry.exporter.emit(event)
        return False


class Telemetry:
    """Instruments, tracer and exporter bound together.

    Args:
        exporter: event sink (default: a fresh :class:`InMemoryExporter`,
            the most useful default for ad-hoc instrumentation).
        clock: monotonic clock; injected by tests for determinism.
        enabled: a telemetry constructed disabled never emits and never
            aggregates — it is the zero-cost stand-in the hot paths see
            by default (see :meth:`disabled`).
    """

    _disabled_singleton: Optional["Telemetry"] = None

    def __init__(
        self,
        exporter: Optional[Exporter] = None,
        clock: Optional[Clock] = None,
        enabled: bool = True,
    ) -> None:
        self.exporter: Exporter = exporter if exporter is not None else InMemoryExporter()
        self._clock: Clock = clock if clock is not None else time.perf_counter
        self._enabled = bool(enabled)
        self.registry = Registry()
        self._local = threading.local()

    @property
    def _span_stack(self) -> List[Span]:
        """The calling thread's span stack (spans nest per thread, so a
        worker's shard span never adopts another thread's parent)."""
        stack: Optional[List[Span]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The process-wide disabled telemetry (``"off"`` resolves here)."""
        if cls._disabled_singleton is None:
            cls._disabled_singleton = cls(exporter=NullExporter(), enabled=False)
        return cls._disabled_singleton

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """The hot-path guard: False means every update is skipped."""
        return self._enabled

    def now(self) -> float:
        """Current reading of the injected clock."""
        return self._clock()

    # ------------------------------------------------------------------
    # Instrument updates
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, **attrs: AttrValue) -> None:
        """Increment the counter ``name`` and emit a ``counter`` event."""
        if not self._enabled:
            return
        self.registry.counter(name).add(value)
        self.exporter.emit(
            {"type": "counter", "name": name, "value": value, "attrs": attrs,
             "t": self._clock()}
        )

    def gauge(self, name: str, value: float, **attrs: AttrValue) -> None:
        """Set the gauge ``name`` and emit a ``gauge`` event."""
        if not self._enabled:
            return
        self.registry.gauge(name).set(value)
        self.exporter.emit(
            {"type": "gauge", "name": name, "value": float(value), "attrs": attrs,
             "t": self._clock()}
        )

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Tuple[float, ...]] = None,
        **attrs: AttrValue,
    ) -> None:
        """Record ``value`` into the histogram ``name``; emit a ``hist`` event."""
        if not self._enabled:
            return
        self.registry.histogram(name, buckets).observe(value)
        self.exporter.emit(
            {"type": "hist", "name": name, "value": float(value), "attrs": attrs,
             "t": self._clock()}
        )

    def observe_many(
        self,
        name: str,
        values: Sequence[float],
        buckets: Optional[Tuple[float, ...]] = None,
        **attrs: AttrValue,
    ) -> None:
        """Record a batch of values into ``name``; emit ONE ``hist`` event.

        The event carries the full value list under ``"values"`` (instead
        of a scalar ``"value"``), so downstream consumers lose nothing —
        but the hot path pays one event dict, one clock read and one
        vectorized bucket update for the whole batch instead of one of
        each per value.  An empty batch records and emits nothing.
        """
        if not self._enabled:
            return
        recorded = self.registry.histogram(name, buckets).observe_many(values)
        if not recorded:
            return
        self.exporter.emit(
            {"type": "hist", "name": name, "values": recorded, "attrs": attrs,
             "t": self._clock()}
        )

    def span(self, name: str, **attrs: AttrValue) -> Union[Span, _NullSpan]:
        """Context manager tracing one named region (nesting-aware)."""
        if not self._enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    # ------------------------------------------------------------------
    # Integration helpers
    # ------------------------------------------------------------------
    def wrap_kernels(self, kernels: KernelSet) -> KernelSet:
        """Wrap a kernel set with dispatch-level timing when enabled.

        Disabled telemetry returns the set untouched, so the kernel hot
        paths pay nothing; already-wrapped sets pass through.
        """
        from repro.obs.timing import TimedKernels

        if not self._enabled or isinstance(kernels, TimedKernels):
            return kernels
        return TimedKernels(kernels, self)

    def events(self) -> List[Event]:
        """Buffered events, when the exporter keeps them in memory.

        Raises:
            ConfigurationError: for exporters without an event buffer.
        """
        buffered = getattr(self.exporter, "events", None)
        if not isinstance(buffered, list):
            raise ConfigurationError(
                f"exporter {type(self.exporter).__name__} does not buffer events"
            )
        return buffered

    def flush(self) -> None:
        """Flush the exporter."""
        self.exporter.flush()

    def close(self) -> None:
        """Close the exporter (summaries render, files close)."""
        self.exporter.close()


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
_BY_NAME: Dict[str, Telemetry] = {}
_FLUSH_AT_EXIT_REGISTERED = False


def _flush_cached_telemetries() -> None:
    """Flush every name-resolved telemetry (atexit hook).

    Batched exporters (jsonl, ring) hold a partial batch in memory; a
    process that never calls ``close()`` would lose its tail without
    this.  Flush, not close: ``close()`` on the text exporter renders a
    summary, which an exiting process may not want twice.
    """
    for cached in list(_BY_NAME.values()):
        try:
            cached.flush()
        except (OSError, ValueError):  # pragma: no cover - teardown races
            pass


def _register_flush_at_exit() -> None:
    """Register the atexit flush once, lazily on the first cache insert
    (importing repro.obs must stay free of interpreter-level side
    effects)."""
    global _FLUSH_AT_EXIT_REGISTERED
    if not _FLUSH_AT_EXIT_REGISTERED:
        import atexit

        atexit.register(_flush_cached_telemetries)
        _FLUSH_AT_EXIT_REGISTERED = True


def resolve_telemetry(telemetry: object = None) -> Telemetry:
    """Resolve a telemetry selection to a concrete :class:`Telemetry`.

    ``telemetry`` may be a :class:`Telemetry` (returned as-is), a
    registered exporter name, or ``None``.  The :data:`OBS_ENV_VAR`
    environment variable overrides any *name* (but never an explicit
    instance).  Name resolutions are cached process-wide so every
    component configured with the same name shares one event stream.
    """
    if isinstance(telemetry, Telemetry):
        return telemetry
    name = TELEMETRY_SELECTOR.resolve(telemetry)
    if name == "off":
        return Telemetry.disabled()
    cached = _BY_NAME.get(name)
    if cached is None:
        cached = Telemetry(exporter=make_exporter(name))
        _BY_NAME[name] = cached
        _register_flush_at_exit()
    return cached


def register_exporter(
    name: str, factory: ExporterFactory, overwrite: bool = False
) -> ExporterFactory:
    """Register an exporter factory under ``name``; returns the factory.

    Overwriting evicts the telemetry cached for ``name`` (flushed first,
    as at exit), so the next resolution builds the new exporter.
    """
    EXPORTER_REGISTRY.register(factory, name, overwrite)
    _evict(name)
    return factory


def unregister_exporter(name: str) -> None:
    """Remove a registered exporter and evict its cached telemetry."""
    EXPORTER_REGISTRY.unregister(name)
    _evict(name)


def _evict(name: str) -> None:
    cached = _BY_NAME.pop(name, None)
    if cached is not None:
        cached.flush()


def reset_telemetry_cache() -> None:
    """Close and drop every name-resolved telemetry (test isolation)."""
    for cached in _BY_NAME.values():
        cached.close()
    _BY_NAME.clear()
