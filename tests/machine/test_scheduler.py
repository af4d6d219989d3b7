"""Unit tests for the event-driven malleable scheduler."""

import pytest

from repro.errors import ConfigurationError, SchedulerError
from repro.machine import DeviceParams, Machine, TaskGraph


def make_machine(throughput=10.0, launch=0.0, sync=0.0, streams=4, boost=0.0):
    return Machine(
        DeviceParams(
            name="test",
            throughput=throughput,
            launch_overhead=launch,
            sync_time=sync,
            streams=streams,
            concurrency_boost=boost,
        )
    )


def test_empty_graph_has_zero_makespan():
    assert make_machine().makespan(TaskGraph()) == 0.0


def test_single_task_work_bound():
    g = TaskGraph()
    g.add("t", work=100.0)
    assert make_machine(throughput=10.0).makespan(g) == pytest.approx(10.0)


def test_single_task_includes_launch():
    g = TaskGraph()
    g.add("t", work=100.0)
    machine = make_machine(throughput=10.0, launch=2.5)
    assert machine.makespan(g) == pytest.approx(12.5)


def test_single_task_span_bound():
    g = TaskGraph()
    g.add("t", work=1.0, span=7.0)
    machine = make_machine(throughput=1e12, sync=2.0)
    assert machine.makespan(g) == pytest.approx(14.0)


def test_two_independent_tasks_share_throughput():
    g = TaskGraph()
    g.add("a", work=100.0)
    g.add("b", work=100.0)
    # Equal share: both finish at 200/10 = 20s (total work / throughput).
    assert make_machine(throughput=10.0).makespan(g) == pytest.approx(20.0)


def test_unequal_tasks_finish_in_work_order():
    g = TaskGraph()
    g.add("small", work=10.0)
    g.add("big", work=100.0)
    schedule = make_machine(throughput=10.0).schedule(g)
    # Shared until small finishes at t=2 (5 flop/s each); big then runs
    # alone: remaining 90 at 10 flop/s -> finishes at 2 + 9 = 11.
    assert schedule.finish_of("small") == pytest.approx(2.0)
    assert schedule.finish_of("big") == pytest.approx(11.0)
    assert schedule.makespan == pytest.approx(11.0)


def test_dependency_serializes():
    g = TaskGraph()
    g.add("a", work=50.0)
    g.add("b", work=50.0, deps=["a"])
    assert make_machine(throughput=10.0).makespan(g) == pytest.approx(10.0)


def test_stream_limit_queues_third_task():
    g = TaskGraph()
    g.add("a", work=100.0)
    g.add("b", work=100.0)
    g.add("c", work=100.0)
    # Two streams: a and b share 10 flop/s, finish at 20; c runs alone.
    machine = make_machine(throughput=10.0, streams=2)
    schedule = machine.schedule(g)
    assert schedule.finish_of("c") == pytest.approx(30.0)


def test_one_stream_serializes_everything():
    g = TaskGraph()
    g.add("a", work=100.0)
    g.add("b", work=100.0)
    machine = make_machine(throughput=10.0, streams=1)
    assert machine.makespan(g) == pytest.approx(machine.serial_time(g))


def test_span_floor_holds_under_sharing():
    g = TaskGraph()
    g.add("lat", work=1.0, span=100.0)
    g.add("cpu", work=1000.0)
    machine = make_machine(throughput=10.0, sync=1.0)
    schedule = machine.schedule(g)
    assert schedule.finish_of("lat") >= 100.0
    # The latency task stops consuming throughput once its work is done,
    # so the heavy task is barely delayed.
    assert schedule.finish_of("cpu") < 105.0


def test_launch_overheads_of_parallel_tasks_overlap():
    g = TaskGraph()
    g.add("a", work=100.0)
    g.add("b", work=100.0)
    machine = make_machine(throughput=10.0, launch=5.0)
    # Launches overlap: total = 5 + 200/10 = 25, not 10 + 20.
    assert machine.makespan(g) == pytest.approx(25.0)


def test_makespan_respects_brent_lower_bounds():
    g = TaskGraph()
    g.add("a", work=30.0, span=2.0)
    g.add("b", work=50.0, span=3.0, deps=["a"])
    g.add("c", work=20.0, span=1.0, deps=["a"])
    machine = make_machine(throughput=10.0, launch=0.5, sync=0.25)
    makespan = machine.makespan(g)
    work_bound = g.total_work() / machine.params.throughput
    span_bound, _ = g.critical_path(
        machine.params.throughput, machine.params.launch_overhead, machine.params.sync_time
    )
    assert makespan >= work_bound - 1e-9
    assert makespan >= span_bound - 1e-9
    assert makespan <= machine.serial_time(g) + 1e-9


def test_diamond_graph_timing():
    g = TaskGraph()
    g.add("src", work=10.0)
    g.add("left", work=40.0, deps=["src"])
    g.add("right", work=40.0, deps=["src"])
    g.add("sink", work=10.0, deps=["left", "right"])
    # src: 1s; left/right share: 80/10 = 8s; sink: 1s -> 10s total.
    assert make_machine(throughput=10.0).makespan(g) == pytest.approx(10.0)


def test_zero_work_zero_span_task_costs_launch_only():
    g = TaskGraph()
    g.add("noop")
    assert make_machine(launch=3.0).makespan(g) == pytest.approx(3.0)


def test_all_zero_graph_terminates():
    g = TaskGraph()
    g.add("a")
    g.add("b", deps=["a"])
    assert make_machine(launch=0.0).makespan(g) == pytest.approx(0.0)


def test_timings_are_consistent():
    g = TaskGraph()
    g.add("a", work=10.0)
    g.add("b", work=10.0, deps=["a"])
    schedule = make_machine(throughput=10.0, launch=1.0).schedule(g)
    for timing in schedule.timings.values():
        assert timing.start <= timing.compute_start <= timing.finish
    assert schedule.timings["b"].start >= schedule.timings["a"].finish


def test_concurrency_boost_speeds_up_co_scheduled_kernels():
    g = TaskGraph()
    g.add("a", work=100.0)
    g.add("b", work=100.0)
    # boost 0.5: two kernels share 10 * 1.5 = 15 flop/s -> 200/15 s.
    machine = make_machine(throughput=10.0, boost=0.5)
    assert machine.makespan(g) == pytest.approx(200.0 / 15.0)


def test_concurrency_boost_does_not_affect_solo_kernel():
    g = TaskGraph()
    g.add("a", work=100.0)
    assert make_machine(throughput=10.0, boost=0.5).makespan(g) == pytest.approx(10.0)


def test_negative_boost_rejected():
    with pytest.raises(Exception):
        DeviceParams(concurrency_boost=-0.1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("throughput", 0.0, "throughput must be positive"),
        ("launch_overhead", -1e-6, "launch_overhead must be non-negative"),
        ("sync_time", -1e-6, "sync_time must be non-negative"),
        ("streams", 0, "streams must be >= 1"),
    ],
    ids=["throughput", "launch_overhead", "sync_time", "streams"],
)
def test_device_params_reject_out_of_range_values(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        DeviceParams(**{field: value})
