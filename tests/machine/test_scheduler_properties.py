"""Property-based tests for the scheduler: Brent bounds, monotonicity
and the makespan memo's contract."""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.machine import (
    TESLA_K80,
    TESLA_K80_NO_OVERLAP,
    DeviceParams,
    ExecutionMeter,
    Machine,
    TaskGraph,
    dense_check_cost,
    spmv_cost,
)
from repro.machine.scheduler import MAKESPAN_MEMO_SIZE, _memoized_makespan


@st.composite
def random_graphs(draw, max_tasks=8):
    n = draw(st.integers(1, max_tasks))
    g = TaskGraph()
    names = [f"t{i}" for i in range(n)]
    for i, name in enumerate(names):
        work = draw(st.floats(0.0, 1e4, allow_nan=False))
        span = draw(st.floats(0.0, 20.0, allow_nan=False))
        n_deps = draw(st.integers(0, i))
        deps = draw(
            st.lists(
                st.sampled_from(names[:i]) if i else st.nothing(),
                min_size=min(n_deps, i),
                max_size=min(n_deps, i),
                unique=True,
            )
        ) if i else []
        g.add(name, work=work, span=span, deps=deps)
    return g


@st.composite
def devices(draw):
    return DeviceParams(
        name="prop",
        throughput=draw(st.floats(1.0, 1e6, allow_nan=False)),
        launch_overhead=draw(st.floats(0.0, 10.0, allow_nan=False)),
        sync_time=draw(st.floats(0.0, 10.0, allow_nan=False)),
        streams=draw(st.integers(1, 4)),
        concurrency_boost=draw(st.floats(0.0, 0.5, allow_nan=False)),
    )


@settings(max_examples=80, deadline=None)
@given(random_graphs(), devices())
def test_makespan_between_brent_bounds_and_serial_time(graph, params):
    machine = Machine(params)
    makespan = machine.makespan(graph)
    # With k concurrent kernels the device peaks at
    # throughput * (1 + boost * (streams - 1)).
    peak = params.throughput * (1.0 + params.concurrency_boost * (params.streams - 1))
    work_bound = graph.total_work() / peak
    assert makespan >= work_bound - 1e-6 * max(1.0, work_bound)
    serial = machine.serial_time(graph)
    assert makespan <= serial + 1e-6 * max(1.0, serial)
    if params.streams >= len(graph):
        span_bound, _ = graph.critical_path(
            params.throughput, params.launch_overhead, params.sync_time
        )
        assert makespan >= span_bound - 1e-6 * max(1.0, span_bound)


@settings(max_examples=60, deadline=None)
@given(random_graphs(), devices())
def test_schedule_respects_dependencies(graph, params):
    schedule = Machine(params).schedule(graph)
    for task in graph.tasks():
        for dep in task.deps:
            assert (
                schedule.timings[task.name].start
                >= schedule.timings[dep].finish - 1e-9
            )


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_more_throughput_never_slower(graph):
    slow = Machine(
        DeviceParams(
            throughput=10.0, launch_overhead=0.1, sync_time=0.01, concurrency_boost=0.0
        )
    )
    fast = Machine(
        DeviceParams(
            throughput=100.0, launch_overhead=0.1, sync_time=0.01, concurrency_boost=0.0
        )
    )
    assert fast.makespan(graph) <= slow.makespan(graph) + 1e-9


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_makespan_deterministic(graph):
    machine = Machine(DeviceParams(throughput=7.0, launch_overhead=0.3, sync_time=0.05))
    assert machine.makespan(graph) == machine.makespan(graph)


#: Kernels the library charges alone: a full SpMV and the dense check's
#: ``w^T r``, each below 10^9 entries.
solo_kernels = st.one_of(
    st.builds(spmv_cost, st.integers(0, 10**9 - 1), st.integers(0, 10**6)),
    st.builds(dense_check_cost, st.integers(1, 10**9 - 1)),
)


@settings(max_examples=300, deadline=None)
@given(solo_kernels, st.sampled_from((TESLA_K80, TESLA_K80_NO_OVERLAP)))
def test_one_task_graph_makespan_is_run_kernel(cost, params):
    """Charging a lone kernel through ``run_kernel`` moves no bit against
    scheduling a one-task graph, so no caller needs the scheduler for it."""
    graph = TaskGraph()
    graph.add("solo", cost.work, cost.span)
    machine = Machine(params)
    meter = ExecutionMeter(machine=machine)
    assert meter.run_kernel(cost) == machine.makespan(graph)
    assert meter.flops == graph.total_work()


# ----------------------------------------------------------------------
# The makespan memo
# ----------------------------------------------------------------------
#: The library's device and the overlap ablation's serializing one.
MEMO_DEVICES = (DeviceParams(), TESLA_K80_NO_OVERLAP)


def _rebuilt(graph):
    """An equal graph built separately, from fresh tasks."""
    copy = TaskGraph()
    for task in graph.tasks():
        copy.add(task.name, task.work, task.span, deps=task.deps)
    return copy


def _count_schedules(monkeypatch):
    """Record the device parameters of every ``Machine.schedule`` call."""
    calls = []
    original = Machine.schedule

    def counted(self, graph):
        calls.append(self.params)
        return original(self, graph)

    monkeypatch.setattr(Machine, "schedule", counted)
    return calls


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.sampled_from(MEMO_DEVICES))
def test_memoized_makespan_is_the_scheduled_one(graph, params):
    machine = Machine(params)
    first, second = machine.makespan(graph), machine.makespan(graph)
    assert first == second == machine.schedule(graph).makespan


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.sampled_from(MEMO_DEVICES))
def test_an_equal_graph_on_an_equal_machine_is_not_rescheduled(graph, params):
    expected = Machine(params).makespan(graph)
    twin = Machine(dataclasses.replace(params))
    assert twin.params is not params
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_schedules(mp)
        again = twin.makespan(_rebuilt(graph))
    assert calls == []
    assert again == expected


@settings(max_examples=80, deadline=None)
@given(random_graphs())
def test_device_parameter_sets_never_share_an_entry(graph):
    _memoized_makespan.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_schedules(mp)
        timed = [Machine(params).makespan(graph) for params in MEMO_DEVICES * 2]
    assert calls == list(MEMO_DEVICES)
    assert timed == [Machine(params).schedule(graph).makespan for params in MEMO_DEVICES * 2]


def test_a_failed_schedule_is_not_memoized(monkeypatch):
    graph = TaskGraph()
    graph.add("solo", 7.0, 1.0)
    machine = Machine(DeviceParams(name="fails-once"))

    def failing(self, graph):
        raise SchedulerError("injected failure")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "schedule", failing)
        with pytest.raises(SchedulerError, match="injected failure"):
            machine.makespan(graph)
    calls = _count_schedules(monkeypatch)
    assert machine.makespan(graph) == machine.schedule(graph).makespan
    assert calls == [machine.params, machine.params]


def test_the_memo_is_bounded_and_eviction_keeps_values():
    _memoized_makespan.cache_clear()
    machine = Machine()
    graphs = []
    for i in range(MAKESPAN_MEMO_SIZE + 1):
        graph = TaskGraph()
        graph.add("solo", float(i), 1.0)
        graphs.append(graph)
        machine.makespan(graph)
    assert _memoized_makespan.cache_info().currsize == MAKESPAN_MEMO_SIZE
    # The first graph was evicted: timing it again schedules it afresh,
    # to the same value.
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_schedules(mp)
        again = machine.makespan(graphs[0])
    assert calls == [machine.params]
    assert again == machine.schedule(graphs[0]).makespan


def test_threads_sharing_the_memo_read_the_scheduled_values():
    """Eight threads time more graph shapes than the memo holds, each in
    its own order, under a short switch interval: every value is the
    scheduled one and the memo stays within its bound."""
    machine = Machine()
    graphs = []
    for i in range(MAKESPAN_MEMO_SIZE + MAKESPAN_MEMO_SIZE // 4):
        graph = TaskGraph()
        graph.add("solo", float(i), 2.0)
        graphs.append(graph)
    expected = [machine.schedule(graph).makespan for graph in graphs]
    _memoized_makespan.cache_clear()
    n_threads = 8
    wrong = []

    def run(offset):
        order = range(offset, offset + len(graphs))
        for index in (i % len(graphs) for i in order):
            if machine.makespan(graphs[index]) != expected[index]:
                wrong.append(index)

    threads = [
        threading.Thread(target=run, args=(k * len(graphs) // n_threads,))
        for k in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    info = _memoized_makespan.cache_info()
    assert info.hits + info.misses == n_threads * len(graphs)
    assert info.currsize <= MAKESPAN_MEMO_SIZE
