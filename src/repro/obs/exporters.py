"""Telemetry exporters and their pluggable registry.

An exporter receives one structured event dict per instrument update or
span completion.  Five ship built in:

* ``"off"`` — the :class:`NullExporter`; resolves to the process-wide
  disabled telemetry (the hot paths' zero-cost default);
* ``"memory"`` — :class:`InMemoryExporter`, buffers events in a list
  (the test exporter, and the substrate of determinism checks);
* ``"jsonl"`` — :class:`JsonlExporter`, appends one JSON object per line
  to the path named by :data:`OBS_PATH_ENV_VAR` (default
  ``obs-events.jsonl``), consumable by ``python -m repro.obs summarize``;
  emission is batched (encode + one ``O_APPEND`` write per
  :data:`DEFAULT_FLUSH_EVERY` events) so the per-event hot-path cost is
  a list append, and concurrent writers never interleave mid-line;
* ``"ring"`` — :class:`RingBufferExporter`, a bounded ring buffer: with
  a downstream sink it streams batches through a background writer
  thread (encode + write off the hot thread), without one it is a
  flight recorder keeping the newest :data:`DEFAULT_RING_CAPACITY`
  events and counting what it dropped (``events_dropped``);
* ``"text"`` — :class:`TextSummaryExporter`, buffers like ``"memory"``
  and renders the human-readable summary on :meth:`close`.

The registry is a :class:`repro.registry.Registry`: built-ins are
protected, custom exporters register a *factory* under a name (exact
spelling) and are selectable through ``AbftConfig.telemetry`` or the
``REPRO_OBS`` environment override (:data:`TELEMETRY_SELECTOR`).
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.errors import ConfigurationError
from repro.registry import Registry, Selector

#: Environment variable overriding the configured exporter name.
OBS_ENV_VAR = "REPRO_OBS"

#: Environment variable naming the JSONL event-log path.
OBS_PATH_ENV_VAR = "REPRO_OBS_PATH"

#: Exporter selected when neither a name nor the environment picks one.
DEFAULT_EXPORTER = "off"

#: One telemetry event: flat JSON-serializable dict (see Telemetry).
Event = Dict[str, object]

#: Ring capacity when the ring exporter runs as a flight recorder.
DEFAULT_RING_CAPACITY = 4096

#: Batch size: buffered events per downstream write.
DEFAULT_FLUSH_EVERY = 128

#: Synthetic counter name reporting ring-buffer drops downstream.
EVENTS_DROPPED_COUNTER = "obs.events_dropped"


class Exporter:
    """Base class for event sinks; subclasses override :meth:`emit`."""

    #: Registry key of the built-in factories; informational for customs.
    name: str = "abstract"

    def emit(self, event: Event) -> None:
        """Receive one telemetry event."""
        raise NotImplementedError

    def emit_batch(self, events: Sequence[Event]) -> None:
        """Receive many events at once (default: emit one by one).

        Batch-aware sinks override this to amortize per-event costs —
        :class:`JsonlExporter` encodes and writes a whole batch with one
        system call.
        """
        for event in events:
            self.emit(event)

    def flush(self) -> None:
        """Push buffered events to their destination (no-op by default)."""

    def close(self) -> None:
        """Release resources; the exporter must tolerate repeated calls."""


class NullExporter(Exporter):
    """Discards every event (the ``"off"`` built-in)."""

    name = "off"

    def emit(self, event: Event) -> None:
        pass


class InMemoryExporter(Exporter):
    """Buffers events in :attr:`events` (the ``"memory"`` built-in)."""

    name = "memory"

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def clear(self) -> None:
        """Drop all buffered events."""
        self.events.clear()


class JsonlExporter(Exporter):
    """Appends one JSON object per event to a log file.

    Events buffer in memory and hit the disk in batches: every
    ``flush_every`` events the pending batch is JSON-encoded in one pass
    and written with a *single* ``os.write`` on an ``O_APPEND`` file
    descriptor.  That keeps the per-event hot-path cost at a list append,
    and — because POSIX append writes are atomic per call — concurrent
    processes sharing one log (``REPRO_OBS_PATH``) never interleave
    mid-line.  The file opens lazily on the first write (selecting the
    exporter must not create files in runs that emit nothing); call
    :meth:`flush` (or :meth:`close`) to persist a partial batch.
    """

    name = "jsonl"

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        if path is None:
            path = os.environ.get(OBS_PATH_ENV_VAR) or "obs-events.jsonl"
        if int(flush_every) < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every!r}"
            )
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self._pending: List[Event] = []
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        with self._lock:
            self._pending.append(event)
            if len(self._pending) >= self.flush_every:
                self._write_pending()

    def emit_batch(self, events: Sequence[Event]) -> None:
        with self._lock:
            self._pending.extend(events)
            self._write_pending()

    def _write_pending(self) -> None:
        """Encode + append the pending batch (caller holds the lock)."""
        if not self._pending:
            return
        # Plain json.dumps reuses the module-cached C encoder; passing
        # separators= would build a fresh JSONEncoder per event and
        # nearly double the encode cost.
        data = b"".join(
            json.dumps(event).encode("utf-8") + b"\n" for event in self._pending
        )
        self._pending.clear()
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        os.write(self._fd, data)

    def flush(self) -> None:
        with self._lock:
            self._write_pending()

    def close(self) -> None:
        with self._lock:
            self._write_pending()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


class RingBufferExporter(Exporter):
    """Bounded ring buffer: streaming front-end or standalone flight recorder.

    With a downstream ``sink`` the ring streams: :meth:`emit` is a list
    append plus a threshold check, and once ``flush_every`` events have
    buffered, a lazily started daemon *writer thread* drains the batch
    and hands it to ``sink.emit_batch`` — JSON encoding and file writes
    leave the hot thread entirely (``background=False`` keeps the drain
    synchronous on the emitting thread instead).  If the writer falls
    behind ``capacity`` buffered events, the oldest are dropped and
    counted rather than blocking the hot path.

    Without a sink it is a flight recorder: the newest ``capacity``
    events are kept for :meth:`drain`, older ones are dropped
    oldest-first and counted in :attr:`events_dropped`.  Either way the
    next drain or batch reports new drops as a synthetic
    :data:`EVENTS_DROPPED_COUNTER` counter event, so downstream
    summaries surface the loss instead of silently under-counting.
    """

    name = "ring"

    def __init__(
        self,
        sink: Optional[Exporter] = None,
        capacity: int = DEFAULT_RING_CAPACITY,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        background: bool = True,
    ) -> None:
        if int(capacity) < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity!r}")
        if int(flush_every) < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every!r}"
            )
        self.sink = sink
        self.capacity = int(capacity)
        self.flush_every = int(flush_every)
        self.background = bool(background)
        self.events_dropped = 0
        self._reported_drops = 0
        self._buffer: List[Event] = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._writer: Optional[threading.Thread] = None
        self._writing = False
        self._flush_requested = False
        self._stop = False

    def emit(self, event: Event) -> None:
        with self._lock:
            self._buffer.append(event)
            if len(self._buffer) > self.capacity:
                overflow = len(self._buffer) - self.capacity
                del self._buffer[0:overflow]
                self.events_dropped += overflow
            if self.sink is not None and len(self._buffer) >= self.flush_every:
                if self.background:
                    self._ensure_writer()
                    self._cond.notify()
                else:
                    batch = self._take_batch()
                    if batch:
                        self.sink.emit_batch(batch)

    def _drop_report(self) -> List[Event]:
        """Synthetic counter events for drops not yet reported."""
        new_drops = self.events_dropped - self._reported_drops
        if new_drops <= 0:
            return []
        self._reported_drops = self.events_dropped
        return [
            {
                "type": "counter",
                "name": EVENTS_DROPPED_COUNTER,
                "value": float(new_drops),
                "attrs": {},
                "t": 0.0,
            }
        ]

    def _take_batch(self) -> List[Event]:
        """Steal the buffer + drop report (caller holds the lock)."""
        batch = self._drop_report() + self._buffer
        self._buffer = []
        return batch

    # -- background writer -------------------------------------------------
    def _ensure_writer(self) -> None:
        """Start the writer thread (caller holds the lock)."""
        if self._writer is None or not self._writer.is_alive():
            self._writer = threading.Thread(
                target=self._writer_loop, name="repro-obs-ring-writer", daemon=True
            )
            self._writer.start()

    def _writer_loop(self) -> None:
        """Drain batches to the sink until :meth:`close` stops the loop.

        The periodic timeout also drains stragglers below the threshold,
        so a live-tailed log never lags more than a fraction of a second
        behind a quiescent producer.
        """
        while True:
            with self._cond:
                while (
                    not self._stop
                    and not self._flush_requested
                    and len(self._buffer) < self.flush_every
                ):
                    signaled = self._cond.wait(0.2)
                    if not signaled and self._buffer:
                        break  # straggler timeout: drain what we have
                self._flush_requested = False
                batch = self._take_batch()
                self._writing = bool(batch)
                stopping = self._stop
            if batch and self.sink is not None:
                self.sink.emit_batch(batch)
                with self._cond:
                    self._writing = False
                    self._cond.notify_all()
            if stopping and not batch:
                return

    @property
    def events(self) -> List[Event]:
        """Snapshot of the buffered events (flight-recorder reads)."""
        with self._lock:
            return list(self._buffer)

    def drain(self) -> List[Event]:
        """Remove and return the buffered events (drop report included)."""
        with self._lock:
            return self._take_batch()

    def flush(self) -> None:
        if self.sink is None:
            return
        with self._cond:
            if self.background and self._writer is not None and self._writer.is_alive():
                # Preserve strict FIFO order: let the writer drain, wait.
                self._flush_requested = True
                self._cond.notify_all()
                deadline = time.monotonic() + 5.0
                while (self._buffer or self._writing) and time.monotonic() < deadline:
                    self._cond.wait(0.02)
                batch: List[Event] = self._take_batch()  # writer died mid-wait?
            else:
                batch = self._take_batch()
        if batch:
            self.sink.emit_batch(batch)
        self.sink.flush()

    def close(self) -> None:
        writer = self._writer
        if writer is not None and writer.is_alive():
            with self._cond:
                self._stop = True
                self._cond.notify_all()
            if writer is not threading.current_thread():
                writer.join(timeout=5.0)
        self.flush()
        if self.sink is not None:
            self.sink.close()


class TextSummaryExporter(Exporter):
    """Buffers events and prints a rendered summary when closed.

    ``stream=None`` writes to stderr at close time (not at construction,
    so pytest capture and redirections are honoured).
    """

    name = "text"

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.events: List[Event] = []
        self._stream = stream

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def render(self, width: int = 48) -> str:
        """Render the buffered events as the human-readable summary."""
        from repro.obs.summary import render_summary

        return render_summary(self.events, width=width)

    def close(self) -> None:
        if not self.events:
            return
        stream = self._stream if self._stream is not None else sys.stderr
        try:
            stream.write(self.render() + "\n")
        except (ValueError, io.UnsupportedOperation):  # closed stream at exit
            pass
        self.events = []


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
ExporterFactory = Callable[[], Exporter]

#: Exporter names that ship with the package and cannot be unregistered.
BUILTIN_EXPORTERS = ("off", "memory", "jsonl", "ring", "text")

#: Exporter factories by name.
EXPORTER_REGISTRY: Registry[ExporterFactory] = Registry("exporter", builtins=BUILTIN_EXPORTERS)
for _factory in (NullExporter, InMemoryExporter, JsonlExporter, RingBufferExporter,
                 TextSummaryExporter):
    EXPORTER_REGISTRY.register(_factory, _factory.name)

#: ``REPRO_OBS`` overrides every configured exporter name.
TELEMETRY_SELECTOR = Selector("telemetry", OBS_ENV_VAR, EXPORTER_REGISTRY, DEFAULT_EXPORTER)


def available_exporters() -> Tuple[str, ...]:
    """Registered exporter names, sorted."""
    return EXPORTER_REGISTRY.available()


def make_exporter(name: str) -> Exporter:
    """Instantiate the exporter registered under ``name``."""
    exporter = EXPORTER_REGISTRY.get(name)()
    if not isinstance(exporter, Exporter):
        raise ConfigurationError(
            f"exporter factory {name!r} returned {type(exporter).__name__}, "
            f"which is not an Exporter"
        )
    return exporter
