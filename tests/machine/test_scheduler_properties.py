"""Property-based tests for the scheduler: Brent bounds and monotonicity."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
