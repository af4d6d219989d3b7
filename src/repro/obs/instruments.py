"""Typed telemetry instruments and their process-local registry.

Three instrument kinds cover everything the ABFT protocol needs to
explain itself quantitatively:

* :class:`Counter` — monotonic event counts (detections, corrections,
  recomputed blocks, rollbacks, injections);
* :class:`Gauge` — last-value measurements (block counts, residuals);
* :class:`Histogram` — fixed-bucket distributions over log-spaced edges
  (syndrome/bound margins, recompute fractions, span wall-times).

Instruments aggregate in-process (cheap reads from tests and adaptive
policies) *and* forward one structured event per update to the exporter
selected on the owning :class:`repro.obs.telemetry.Telemetry`.  A
:class:`Registry` keys instruments by name and enforces that a name is
never reused with a different type — ``abft.detections`` is a counter
everywhere or nowhere.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

#: Snapshot value type: counters/gauges report floats, histograms a dict.
SnapshotValue = Union[float, Dict[str, object]]


def log_buckets(lo: float, hi: float, per_decade: int = 1) -> Tuple[float, ...]:
    """Log-spaced bucket edges from ``lo`` to ``hi`` (inclusive).

    Args:
        lo: smallest edge (must be positive).
        hi: largest edge (must exceed ``lo``).
        per_decade: number of edges per factor of ten.

    Returns:
        A strictly increasing tuple of edges; observations below ``lo``
        land in the underflow bucket, at/above ``hi`` in the overflow
        bucket.
    """
    if lo <= 0 or hi <= lo:
        raise ConfigurationError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ConfigurationError(f"per_decade must be >= 1, got {per_decade}")
    n_steps = round(math.log10(hi / lo) * per_decade)
    if n_steps < 1:
        raise ConfigurationError(f"[{lo}, {hi}] spans less than one bucket")
    edges = tuple(lo * 10.0 ** (i / per_decade) for i in range(n_steps + 1))
    return edges


#: Default edges for ratio-like histograms (syndrome margin spans roughly
#: 1e-9 (far below the bound) to 1e+3 (a gross violation)).
DEFAULT_RATIO_BUCKETS = log_buckets(1e-9, 1e3, per_decade=1)

#: Default edges for wall-time histograms (0.1us .. 100s).
DEFAULT_TIME_BUCKETS = log_buckets(1e-7, 1e2, per_decade=1)

#: Default edges for fraction-valued histograms (1e-4 .. 1).
DEFAULT_FRACTION_BUCKETS = log_buckets(1e-4, 1.0, per_decade=1)


class Instrument:
    """Base class: a named aggregate with a one-line snapshot.

    Updates are guarded by a per-instrument lock so instruments shared
    across threads (one process-wide telemetry, protected multiplies on a
    pool) aggregate exactly — ``+=`` on a float is not atomic in Python.
    """

    kind: str = "abstract"

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("instrument name must be non-empty")
        self.name = name
        self._lock = threading.Lock()

    def snapshot(self) -> SnapshotValue:
        """Aggregate state as a JSON-friendly value."""
        raise NotImplementedError


class Counter(Instrument):
    """Monotonic counter: only ever increases."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; negative or non-finite deltas are errors."""
        if not (amount >= 0.0 and math.isfinite(amount)):
            raise ConfigurationError(
                f"counter {self.name!r} increments must be finite and >= 0, "
                f"got {amount!r}"
            )
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge(Instrument):
    """Last-value gauge: records the most recent measurement."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = math.nan
        self.updates = 0

    def set(self, value: float) -> None:
        """Record a measurement (non-finite values are allowed and kept)."""
        with self._lock:
            self.value = float(value)
            self.updates += 1

    def snapshot(self) -> float:
        return self.value


class Histogram(Instrument):
    """Fixed-bucket histogram over strictly increasing edges.

    ``counts`` has ``len(edges) + 1`` slots: index 0 is the underflow
    bucket (values below ``edges[0]``), the last is overflow (values at or
    above ``edges[-1]``).  NaN observations are tallied separately in
    :attr:`nan_count` — they carry no magnitude to bucket.
    """

    kind = "histogram"

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        super().__init__(name)
        edges = tuple(float(e) for e in (buckets or DEFAULT_RATIO_BUCKETS))
        if len(edges) < 1 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram {name!r} edges must be strictly increasing, got {edges}"
            )
        self.edges: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.nan_count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            if math.isnan(value):
                self.nan_count += 1
                return
            self.counts[bisect_right(self.edges, value)] += 1
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def observe_many(self, values: Sequence[float]) -> List[float]:
        """Record a batch of observations in one vectorized pass.

        Equivalent to calling :meth:`observe` per value (same bucketing,
        same NaN handling) but buckets with one ``searchsorted`` +
        ``bincount`` instead of a Python-level loop — this is what keeps
        per-block margin recording off the multiply's critical path.

        Returns:
            The observations as plain floats (the event payload).
        """
        arr = np.asarray(values, dtype=float).ravel()
        nan_mask = np.isnan(arr)
        finite = arr[~nan_mask] if nan_mask.any() else arr
        indexes = np.searchsorted(self.edges, finite, side="right")
        binned = np.bincount(indexes, minlength=len(self.counts))
        with np.errstate(over="ignore"):
            # Fault-injected margins reach float64 extremes; saturating
            # to inf matches what scalar accumulation does silently.
            batch_sum = float(finite.sum())
        with self._lock:
            for index in np.flatnonzero(binned):
                self.counts[index] += int(binned[index])
            self.count += int(finite.size)
            self.nan_count += int(np.count_nonzero(nan_mask))
            self.sum += batch_sum
            if finite.size:
                self.min = min(self.min, float(finite.min()))
                self.max = max(self.max, float(finite.max()))
        return arr.tolist()

    @property
    def mean(self) -> float:
        """Mean of the finite observations (NaN when empty)."""
        return self.sum / self.count if self.count else math.nan

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "nan_count": self.nan_count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "edges": list(self.edges),
            "counts": list(self.counts),
        }


class Registry:
    """Process-local instrument registry: one typed instrument per name.

    Requesting an existing name returns the existing instrument;
    requesting it with a different type (or a histogram with different
    buckets) raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Counter(name)
                self._instruments[name] = instrument
        if not isinstance(instrument, Counter):
            raise ConfigurationError(
                f"instrument {name!r} is a {instrument.kind}, not a counter"
            )
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Gauge(name)
                self._instruments[name] = instrument
        if not isinstance(instrument, Gauge):
            raise ConfigurationError(
                f"instrument {name!r} is a {instrument.kind}, not a gauge"
            )
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` fixes the edges at creation; a later request with
        *different* explicit edges is a configuration error (omitting
        ``buckets`` accepts whatever the histogram was created with).
        """
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(name, buckets)
                self._instruments[name] = instrument
                return instrument
        if not isinstance(instrument, Histogram):
            raise ConfigurationError(
                f"instrument {name!r} is a {instrument.kind}, not a histogram"
            )
        if buckets is not None and tuple(float(e) for e in buckets) != instrument.edges:
            raise ConfigurationError(
                f"histogram {name!r} already exists with different buckets"
            )
        return instrument

    def get(self, name: str) -> Instrument:
        """Look up an instrument; unknown names raise ConfigurationError."""
        try:
            return self._instruments[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown instrument {name!r}; expected one of {self.names()}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered instrument names, sorted."""
        return tuple(sorted(self._instruments))

    def snapshot(self) -> Dict[str, SnapshotValue]:
        """Aggregate state of every instrument, keyed by name."""
        return {name: inst.snapshot() for name, inst in sorted(self._instruments.items())}
