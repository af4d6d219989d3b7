"""Merge determinism of the cross-process telemetry pipeline.

The parent folds worker registry deltas in ascending worker order, so a
seeded workload must produce *identical merged totals* no matter how the
work is sharded: 1 worker (dormant serial path), 2 and 4 workers, and the
plain serial backend all agree bit for bit on protocol counters and on
the ``abft.syndrome_margin`` histogram (bucket counts AND float sums —
the per-block margins are computed from the same bytes in every
topology).  A forced worker crash + lazy respawn mid-campaign loses only
the in-flight dispatch, so a retried multiply restores exact equality.
"""

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.errors import WorkerCrashError
from repro.kernels import KERNEL_ENV_VAR
from repro.obs import InMemoryExporter, Telemetry
from repro.perf import ProtectedPlan
from repro.sparse import random_spd

N = 96
NNZ = 900
BLOCK = 16

#: Counters whose totals must be topology-independent (parent-side
#: protocol accounting driven by the merged detection results).
PROTOCOL_COUNTERS = ("abft.checks", "abft.detections", "abft.corrections")


@pytest.fixture(autouse=True)
def _vectorized_kernels(monkeypatch):
    """The fused shard path reduces t2 in the vectorized kernels' order;
    the 1-shard and serial references must too, so an ambient
    REPRO_KERNELS=naive (whose per-block sums round differently) is
    cleared."""
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)


def _campaign(n_shards, parallel, n_multiplies=3, crash_after=None):
    """Run a seeded multiply campaign; return the merged telemetry.

    ``crash_after=k`` kills one worker after the k-th multiply; the next
    multiply is expected to fail with :class:`WorkerCrashError` and is
    retried once on the lazily respawned pool, so every campaign completes
    exactly ``n_multiplies`` successful multiplies.
    """
    telemetry = Telemetry(exporter=InMemoryExporter())
    matrix = random_spd(N, NNZ, seed=7)
    operator = FaultTolerantSpMV(
        matrix, config=AbftConfig(block_size=BLOCK), telemetry=telemetry
    )
    plan = ProtectedPlan(
        operator,
        n_shards=n_shards,
        parallel=parallel,
        backend_options={"serial_cutoff": 0} if parallel == "processes" else None,
        # Cross-backend determinism is asserted on the CSR shard pipeline;
        # pin it against REPRO_FORMAT overrides (the processes backend
        # would coerce to CSR anyway, skewing the comparison).
        sparse_format="csr",
    )
    b = np.random.default_rng(123).standard_normal(N)
    with plan:
        successes = 0
        crashed = False
        while successes < n_multiplies:
            if crash_after is not None and not crashed and successes == crash_after:
                crashed = True
                pool = plan.backend._pool
                assert pool is not None
                victim = pool.workers[0].process
                victim.kill()
                victim.join(timeout=10.0)
                # The failed dispatch merges nothing; the pool respawns
                # lazily and the campaign continues to full length.
                with pytest.raises(WorkerCrashError):
                    plan.multiply(b.copy())
                continue
            result = plan.multiply(b.copy())
            assert result.clean
            successes += 1
    return telemetry


def _protocol_totals(telemetry):
    registry = telemetry.registry
    counters = {
        name: registry.get(name).value
        for name in PROTOCOL_COUNTERS
        if name in registry.names()
    }
    margins = registry.get("abft.syndrome_margin").snapshot()
    return counters, margins


def test_merged_totals_identical_across_1_2_4_workers():
    reference = _protocol_totals(_campaign(1, "processes"))
    for n_shards in (2, 4):
        totals = _protocol_totals(_campaign(n_shards, "processes"))
        assert totals == reference, f"n_shards={n_shards} diverged"


def test_merged_totals_match_serial_backend():
    serial = _protocol_totals(_campaign(4, "serial"))
    processes = _protocol_totals(_campaign(4, "processes"))
    assert processes == serial


def test_worker_kernel_counts_are_topology_scaled():
    # Worker-side shard timings scale with the shard count — sanity that
    # the 2- and 4-worker runs really crossed the process border.
    for n_shards in (2, 4):
        telemetry = _campaign(n_shards, "processes")
        detect = telemetry.registry.get("kernel.detect_shard.seconds")
        assert detect.count == 3 * n_shards


def test_crash_and_respawn_preserves_merged_totals():
    clean = _protocol_totals(_campaign(4, "processes"))
    crashed = _protocol_totals(_campaign(4, "processes", crash_after=2))
    assert crashed == clean
    # Worker-side merged counts agree too: the crashed dispatch merged
    # nothing, the respawned pool delivered the remaining deltas.
    telemetry = _campaign(4, "processes", crash_after=1)
    detect = telemetry.registry.get("kernel.detect_shard.seconds")
    assert detect.count == 3 * 4
