"""Sharded threads plans emit the serial run's protocol telemetry.

Sharding redistributes *kernel* work; the protocol story — checks,
detections, corrections and per-block syndrome margins — must be the one
the same-seed serial run tells, value for value, for any shard count, on
a clean campaign and on one whose bound flags every block.
"""

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.kernels import VectorizedKernels
from repro.obs import InMemoryExporter, Telemetry
from repro.perf import ProtectedPlan
from repro.sparse import random_spd
from tests.kernels.naive import kernels_installed

N = 96
NNZ = 900
BLOCK = 16
MULTIPLIES = 3

#: Counters whose totals must not depend on the shard topology.
PROTOCOL_COUNTERS = ("abft.checks", "abft.detections", "abft.corrections")

#: Campaign configurations: clean multiplies, and a vanishing bound that
#: flags every block and runs the correction loop to exhaustion.
SCENARIOS = {
    "clean": {},
    "storm": {"bound_scale": 1e-12, "max_correction_rounds": 2},
}


@pytest.fixture(autouse=True)
def _vectorized_kernels():
    """The fused shard path reduces t2 in the vectorized kernels' order;
    the serial reference must too, so a session run under the naive
    oracle (whose per-block sums round differently) pins them here."""
    with kernels_installed(VectorizedKernels()):
        yield


def _campaign(n_shards, parallel, scenario):
    """Run a seeded multiply campaign; return its telemetry."""
    telemetry = Telemetry(exporter=InMemoryExporter())
    operator = FaultTolerantSpMV(
        random_spd(N, NNZ, seed=7),
        config=AbftConfig(block_size=BLOCK, **SCENARIOS[scenario]),
        telemetry=telemetry,
    )
    plan = ProtectedPlan(
        operator, n_shards=n_shards, parallel=parallel, sparse_format="csr"
    )
    assert plan.backend_name == parallel
    b = np.random.default_rng(123).standard_normal(N)
    for _ in range(MULTIPLIES):
        result = plan.multiply(b.copy())
        assert result.clean is (scenario == "clean")
    return telemetry


def _protocol_events(telemetry):
    """ABFT counters and syndrome margins, stripped of clock readings.
    Kernel-timing events and ``plan.shard`` spans depend on the shard
    topology, so they are excluded."""
    kept = []
    for event in telemetry.events():
        if (event["type"] == "counter" and event["name"].startswith("abft.")) or (
            event["type"] == "hist" and event["name"] == "abft.syndrome_margin"
        ):
            kept.append({k: v for k, v in event.items() if k != "t"})
    return kept


def _protocol_totals(telemetry):
    registry = telemetry.registry
    counters = {
        name: registry.get(name).value
        for name in PROTOCOL_COUNTERS
        if name in registry.names()
    }
    return counters, registry.get("abft.syndrome_margin").snapshot()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("n_shards", (2, 4))
def test_protocol_events_match_the_serial_run_bit_for_bit(n_shards, scenario):
    serial = _protocol_events(_campaign(1, "serial", scenario))
    assert serial  # the campaign actually exercised the protocol
    assert _protocol_events(_campaign(n_shards, "threads", scenario)) == serial


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_protocol_totals_identical_across_shard_counts(scenario):
    reference = _protocol_totals(_campaign(1, "serial", scenario))
    assert reference[0]["abft.checks"] >= MULTIPLIES
    if scenario == "storm":
        assert reference[0]["abft.corrections"] > 0
    for n_shards in (2, 4):
        totals = _protocol_totals(_campaign(n_shards, "threads", scenario))
        assert totals == reference, f"n_shards={n_shards} diverged"
