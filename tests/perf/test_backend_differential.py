"""Cross-backend differential fault-injection matrix.

Two layers of the bit-identity contract:

1. **Scheme layer** — every registered scheme, configured with every
   execution backend (``AbftConfig(parallel=...)``), replays the golden
   corpus of PR 5 (clean + single burst) and must match the committed
   snapshots bit for bit.  A backend is an execution strategy, never a
   numerics change — even for schemes that take no planned path at all.

2. **Plan layer** — the planned ABFT multiply with real multi-shard
   fan-out: clean runs, per-shard injected bursts, and a flag-every-block
   correction storm must agree with the serial reference on value bits,
   detection/correction history, simulated seconds and flops — in
   float64, and in float32 storage on CSR and BSR.  Under a bound that
   must be evaluated at every check, every result field must agree too.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AbftConfig
from repro.core.protected import FaultTolerantSpMV
from repro.machine import Machine
from repro.perf import BUILTIN_BACKENDS, ProtectedPlan
from repro.schemes import BUILTIN_SCHEMES, make_scheme
from repro.sparse import block_stencil_spd, random_spd
from tests.perf.flagging import FirstCheckFlagsBlockOne

GOLDEN = Path(__file__).parent.parent / "schemes" / "golden"

#: Corpus parameters of the committed snapshots (see tests/schemes).
N, NNZ, MATRIX_SEED, RHS_SEED = 96, 900, 7, 123
BLOCK_SIZE = 16
BURST_INDEX, BURST_MAGNITUDE = 33, 1e4

#: Shard count of the plan-layer matrix (4 shards over 6 blocks).
N_SHARDS = 4

BACKENDS = tuple(sorted(BUILTIN_BACKENDS))

#: ``(storage format, backend)`` legs of the float32 plan layer.
FLOAT32_LEGS = tuple(
    (fmt, backend) for fmt in ("csr", "bsr") for backend in BACKENDS
)


@pytest.fixture(scope="module")
def corpus():
    matrix = random_spd(N, NNZ, seed=MATRIX_SEED)
    b = np.random.default_rng(RHS_SEED).standard_normal(N)
    return matrix, b


def one_shot_burst(index=BURST_INDEX, magnitude=BURST_MAGNITUDE):
    state = {"armed": True}

    def hook(stage, data, work):
        if stage == "result" and state["armed"]:
            data[index] += magnitude
            state["armed"] = False

    return hook


def assert_matches_golden(result, golden):
    assert [float(v).hex() for v in result.value] == golden["value"]
    assert [bool(d) for d in result.detections] == golden["detections"]
    assert [[int(s), int(e)] for s, e in result.corrections] == golden["corrections"]
    assert [
        [int(block) for block in blocks] for blocks in result.detected_blocks
    ] == golden["detected_blocks"]
    assert [int(block) for block in result.corrected_blocks] == golden[
        "corrected_blocks"
    ]
    assert result.rounds == golden["rounds"]
    assert float(result.seconds).hex() == golden["seconds"]
    assert float(result.flops) == golden["flops"]
    assert bool(result.exhausted) is golden["exhausted"]


def snapshot(result):
    """Value-semantics copy of a result whose buffers a plan may reuse."""
    return {
        "value": [float(v).hex() for v in result.value],
        "detected": tuple(tuple(int(x) for x in d) for d in result.detected),
        "corrected_blocks": tuple(int(x) for x in result.corrected_blocks),
        "rounds": int(result.rounds),
        "seconds": float(result.seconds).hex(),
        "flops": float(result.flops),
        "exhausted": bool(result.exhausted),
    }


# ----------------------------------------------------------------------
# Scheme layer: every scheme x backend x scenario vs golden snapshots
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", ("clean", "burst"))
@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_scheme_matches_golden_under_every_backend(corpus, name, scenario, backend):
    matrix, b = corpus
    golden = json.loads((GOLDEN / f"{name}_{scenario}.json").read_text())
    scheme = make_scheme(
        name,
        matrix,
        config=AbftConfig(block_size=BLOCK_SIZE, parallel=backend),
        machine=Machine(),
    )
    tamper = one_shot_burst() if scenario == "burst" else None
    result = scheme.multiply(b.copy(), tamper=tamper)
    assert_matches_golden(result, golden)


# ----------------------------------------------------------------------
# Plan layer: multi-shard fan-out across backends
# ----------------------------------------------------------------------
def _plan(corpus, backend, sparse_format="csr", dtype=None, **config_kwargs):
    matrix, _ = corpus
    if dtype is not None:
        matrix = matrix.astype(dtype)
    config = AbftConfig(block_size=BLOCK_SIZE, dtype=dtype, **config_kwargs)
    operator = FaultTolerantSpMV(matrix, config=config)
    return ProtectedPlan(
        operator,
        n_shards=N_SHARDS,
        parallel=backend,
        # The golden snapshots are CSR products; pin the format against a
        # REPRO_FORMAT override.
        sparse_format=sparse_format,
    )


@pytest.fixture(scope="module")
def serial_reference(corpus):
    """Serial-backend snapshots for every plan-layer scenario."""
    _, b = corpus
    reference = {}
    plan = _plan(corpus, "serial")
    assert plan.spmv.n_shards == N_SHARDS
    reference["clean"] = snapshot(plan.multiply(b.copy()))
    for shard, (r0, r1) in enumerate(plan._shard_rows):
        tamper = one_shot_burst(index=(r0 + r1) // 2)
        reference[f"burst_shard{shard}"] = snapshot(
            plan.multiply(b.copy(), tamper=tamper)
        )
    plan = _plan(corpus, "serial", bound_scale=1e-12, max_correction_rounds=2)
    reference["flag_all"] = snapshot(plan.multiply(b.copy()))
    return reference


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_clean_multiply_bit_identical_across_backends(
    corpus, serial_reference, backend
):
    _, b = corpus
    plan = _plan(corpus, backend)
    assert plan.backend_name == backend
    assert snapshot(plan.multiply(b.copy())) == serial_reference["clean"]
    # Steady state: repeated multiplies stay on the same bits.
    assert snapshot(plan.multiply(b.copy())) == serial_reference["clean"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_per_shard_burst_bit_identical_across_backends(
    corpus, serial_reference, backend
):
    _, b = corpus
    plan = _plan(corpus, backend)
    for shard, (r0, r1) in enumerate(plan._shard_rows):
        tamper = one_shot_burst(index=(r0 + r1) // 2)
        result = snapshot(plan.multiply(b.copy(), tamper=tamper))
        assert result == serial_reference[f"burst_shard{shard}"], (
            f"backend {backend!r} diverged on shard {shard} burst"
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_correction_storm_bit_identical_across_backends(
    corpus, serial_reference, backend
):
    """A microscopic bound flags every block: every backend corrects and
    re-verifies to the same bits."""
    _, b = corpus
    plan = _plan(
        corpus, backend, bound_scale=1e-12, max_correction_rounds=2
    )
    result = snapshot(plan.multiply(b.copy()))
    assert result == serial_reference["flag_all"]
    assert result["corrected_blocks"]  # the storm actually corrected


@pytest.mark.parametrize(
    "sparse_format,backend", FLOAT32_LEGS, ids=["-".join(leg) for leg in FLOAT32_LEGS]
)
def test_plan_float32_bit_identical_across_backends(corpus, sparse_format, backend):
    """Float32 storage through the fused multi-shard path: the checksum
    shards read a float64 staging of the operand, and every backend must
    reproduce the serial plan's value bits and detection history, on a
    clean multiply and on a flag-every-block correction storm."""
    _, b = corpus
    b32 = b.astype(np.float32)
    for scenario in ({}, {"bound_scale": 1e-12, "max_correction_rounds": 2}):
        plan = _plan(corpus, "serial", sparse_format, "float32", **scenario)
        reference = snapshot(plan.multiply(b32))
        plan = _plan(corpus, backend, sparse_format, "float32", **scenario)
        assert plan.sparse_format == sparse_format
        assert plan.spmv.n_shards == N_SHARDS
        assert plan.backend_name == backend
        result = plan.multiply(b32)
        assert result.value.dtype == np.float32
        assert snapshot(result) == reference
        if scenario:
            assert reference["corrected_blocks"]  # the storm corrected


#: ``(storage format, backend)`` legs of the re-verification check.
REVERIFY_LEGS = (("csr", "threads"), ("bsr", "threads"))


def _reverify_fields(sparse_format, backend):
    """Every field of one multiply whose first check flags block 1."""
    matrix = block_stencil_spd(48, 8, seed=31)
    config = AbftConfig(block_size=BLOCK_SIZE)
    bound = FaultTolerantSpMV(matrix, config=config).detector.bound
    operator = FaultTolerantSpMV(
        matrix, config=config, bound_override=FirstCheckFlagsBlockOne(bound)
    )
    b = np.random.default_rng(RHS_SEED).standard_normal(matrix.n_cols)
    plan = ProtectedPlan(
        operator,
        n_shards=3,
        parallel=backend,
        sparse_format=sparse_format,
    )
    assert plan.backend_name == backend
    result = plan.multiply(b)
    fields = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
    }
    fields["value"] = result.value.tobytes()
    return fields


@pytest.mark.parametrize(
    "sparse_format,backend", REVERIFY_LEGS, ids=["-".join(leg) for leg in REVERIFY_LEGS]
)
def test_reverification_reads_fresh_thresholds_on_every_backend(sparse_format, backend):
    """A multi-shard plan re-verifies a corrected block against thresholds
    evaluated again, as the serial plan does: block 1 is recomputed once
    and passes, and every result field matches the serial plan's."""
    reference = _reverify_fields(sparse_format, "serial")
    assert reference["detections"] == (True, False)
    assert reference["rounds"] == 1
    assert reference["corrected_blocks"] == (1,)
    assert _reverify_fields(sparse_format, backend) == reference


def test_plan_clean_matches_unplanned_golden(corpus):
    """The multi-shard threads plan agrees with the committed unplanned
    abft snapshot — linking the plan layer back to the PR 5 corpus."""
    _, b = corpus
    golden = json.loads((GOLDEN / "abft_clean.json").read_text())
    plan = _plan(corpus, "threads")
    result = plan.multiply(b.copy())
    assert [float(v).hex() for v in result.value] == golden["value"]
    assert float(result.seconds).hex() == golden["seconds"]
    assert float(result.flops) == golden["flops"]
