"""Event-driven malleable-task scheduler for the simulated machine.

Scheduling model (per :mod:`repro.machine.params`):

* The device executes at most ``streams`` kernels concurrently; additional
  ready kernels queue FIFO.
* A kernel first pays ``launch_overhead`` seconds (not consuming
  throughput), then its *compute phase* starts.
* All kernels in their compute phase with work remaining share the device
  throughput equally; ``k`` concurrent kernels enjoy a combined rate of
  ``throughput * (1 + concurrency_boost * (k-1))`` because memory-bound
  kernels hide each other's latency (work-conserving equal split).
* A kernel finishes when its work is exhausted **and** its compute phase
  has lasted at least ``span * sync_time`` (the critical-path floor).

The resulting makespan respects both Brent bounds: it is at least
``total_work / throughput`` and at least the solo-duration critical path.

:meth:`Machine.makespan` is memoized by value.  One process-wide,
thread-safe LRU memo (``functools.lru_cache``, at most
:data:`MAKESPAN_MEMO_SIZE` entries) is keyed on the frozen
:class:`DeviceParams` and the graph's tasks in insertion order (each a
frozen :class:`~repro.machine.task.Task`: name, work, span, deps).  The
key holds every input of :meth:`Machine.schedule`, so equal graphs on
machines with equal parameters share one entry, and a hit returns the
float a fresh schedule would.  The scheduler runs only for the first
graph of a shape, for :meth:`Machine.schedule` itself and for the
analysis harnesses that call it; a failed schedule is not memoized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SchedulerError
from repro.machine.graph import TaskGraph
from repro.machine.params import DeviceParams
from repro.machine.task import Task

_EPS = 1e-15  # seconds
_WORK_EPS = 1e-6  # FLOPs; work quantities are >= 1 when non-zero

#: Entries the makespan memo keeps, least recently used evicted first.
#: A 20 s ``faults`` ledger run over four matrices fills about 640.
MAKESPAN_MEMO_SIZE = 4096


@dataclass(frozen=True)
class TaskTiming:
    """Realized schedule of one task."""

    start: float
    compute_start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class Schedule:
    """Result of simulating a task graph on a device."""

    makespan: float
    timings: Dict[str, TaskTiming]

    def finish_of(self, name: str) -> float:
        return self.timings[name].finish


class Machine:
    """A simulated accelerator executing :class:`TaskGraph` instances."""

    def __init__(self, params: DeviceParams | None = None) -> None:
        self.params = params or DeviceParams()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, graph: TaskGraph) -> Schedule:
        """Simulate the graph and return per-task timings and the makespan."""
        tasks = graph.tasks()
        if not tasks:
            return Schedule(0.0, {})

        params = self.params
        successors = graph.successors()
        unmet = {task.name: len(task.deps) for task in tasks}
        by_name = {task.name: task for task in tasks}

        ready: List[str] = [task.name for task in tasks if unmet[task.name] == 0]
        if not ready:
            raise SchedulerError("task graph has no source task")

        launching: Dict[str, float] = {}  # name -> launch end time
        running: Dict[str, List[float]] = {}  # name -> [remaining_work, span_end]
        compute_started: Dict[str, float] = {}
        started: Dict[str, float] = {}
        finished: Dict[str, float] = {}

        now = 0.0
        in_flight = 0

        def admit() -> None:
            nonlocal in_flight
            while ready and in_flight < params.streams:
                name = ready.pop(0)
                started[name] = now
                launching[name] = now + params.launch_overhead
                in_flight += 1

        admit()

        for _ in range(4 * len(tasks) * (len(tasks) + 2)):
            if len(finished) == len(tasks):
                break
            active = [name for name, state in running.items() if state[0] > _WORK_EPS]
            if active:
                # Co-scheduled kernels hide each other's memory latency:
                # k kernels share throughput * (1 + boost * (k - 1)).
                effective = params.throughput * (
                    1.0 + params.concurrency_boost * (len(active) - 1)
                )
                share = effective / len(active)
            else:
                share = 0.0

            # Earliest next event: a launch ending, work running out, or a
            # span floor elapsing.
            next_time = None
            for end in launching.values():
                next_time = end if next_time is None else min(next_time, end)
            for name, (remaining, span_end) in running.items():
                if remaining > _WORK_EPS:
                    # Work exhaustion is an event of its own (shares must be
                    # recomputed) even if the span floor delays completion.
                    candidate = now + remaining / share
                else:
                    candidate = max(now, span_end)
                next_time = candidate if next_time is None else min(next_time, candidate)
            if next_time is None:
                raise SchedulerError("deadlock: tasks pending but nothing executing")
            next_time = max(next_time, now)

            # Advance work on active tasks.
            dt = next_time - now
            for name in active:
                running[name][0] = max(0.0, running[name][0] - share * dt)
            now = next_time

            # Launch completions -> compute phase begins.
            for name in [n for n, end in launching.items() if end <= now + _EPS]:
                del launching[name]
                task = by_name[name]
                compute_started[name] = now
                running[name] = [task.work, now + task.span * params.sync_time]

            # Task completions.
            completed = [
                name
                for name, (remaining, span_end) in running.items()
                if remaining <= _WORK_EPS and span_end <= now + _EPS
            ]
            for name in completed:
                del running[name]
                finished[name] = now
                in_flight -= 1
                for succ in successors[name]:
                    unmet[succ] -= 1
                    if unmet[succ] == 0:
                        ready.append(succ)
            admit()
        else:
            raise SchedulerError("scheduler failed to converge (internal error)")

        timings = {
            name: TaskTiming(started[name], compute_started[name], finished[name])
            for name in finished
        }
        return Schedule(max(finished.values()), timings)

    def makespan(self, graph: TaskGraph) -> float:
        """Makespan of the graph in simulated seconds, memoized by value
        (see the module docstring): equal to ``schedule(graph).makespan``."""
        return _memoized_makespan(self.params, tuple(graph.tasks()))

    def serial_time(self, graph: TaskGraph) -> float:
        """Time if every task ran alone, back to back (no overlap)."""
        params = self.params
        return sum(
            task.solo_duration(params.throughput, params.launch_overhead, params.sync_time)
            for task in graph.tasks()
        )


@functools.lru_cache(maxsize=MAKESPAN_MEMO_SIZE)
def _memoized_makespan(params: DeviceParams, tasks: Tuple[Task, ...]) -> float:
    """The memo behind :meth:`Machine.makespan`: schedules a graph
    rebuilt from ``tasks`` on a miss."""
    graph = TaskGraph()
    for task in tasks:
        graph.add_task(task)
    return Machine(params).schedule(graph).makespan
