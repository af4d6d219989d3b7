"""Format-aware planned execution: selection, dispatch and correctness.

Complements ``test_plan.py`` (which pins the CSR bit-identity contract):
here the plan runs on BSR storage, where the value is bit-identical
to the *storage format's* own matvec (the shard executors replay its
summation) and bound-level close to the CSR reference.
"""

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.errors import ConfigurationError
from repro.obs import InMemoryExporter, Telemetry
from repro.perf import BACKEND_ENV_VAR, ProtectedPlan
from repro.solvers.ft_pcg import FtPcgOptions, run_pcg
from repro.sparse import (
    FORMAT_ENV_VAR,
    BsrMatrix,
    block_stencil_spd,
    build_format,
    random_spd,
)
from tests.perf.flagging import FirstCheckFlagsBlockOne

BLOCK = 16


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    """Selection tests need a known baseline: no ambient REPRO_FORMAT or
    REPRO_PARALLEL."""
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


@pytest.fixture
def blocky():
    """FEM-style block-structured matrix (BSR fill 1.0 at 8x8)."""
    return block_stencil_spd(48, 8, seed=31)


@pytest.fixture
def hostile():
    """Unstructured scatter: auto-selection must keep CSR."""
    return random_spd(256, 2500, seed=21)


def _operator(matrix, **config_kwargs):
    return FaultTolerantSpMV(
        matrix, config=AbftConfig(block_size=BLOCK, **config_kwargs)
    )


def one_shot_burst(index=0):
    state = {"done": False}

    def hook(stage, data, work):
        if stage == "result" and not state["done"]:
            data[index] += 1e3
            state["done"] = True

    return hook


# ----------------------------------------------------------------------
# Selection plumbing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("requested", ["bsr"])
def test_explicit_format_request_builds_storage(blocky, requested):
    plan = _operator(blocky).planned(sparse_format=requested)
    assert plan.sparse_format == requested
    assert plan.format_choice.requested == requested
    assert plan.format_choice.reason == "requested explicitly"
    assert plan.spmv.storage is not None
    assert plan.spmv.storage.format_name == requested


def test_default_plan_stays_csr(blocky):
    plan = _operator(blocky).planned()
    assert plan.sparse_format == "csr"
    assert plan.spmv.storage is None


def test_auto_selects_bsr_on_block_structure(blocky):
    plan = _operator(blocky).planned(sparse_format="auto")
    assert plan.sparse_format == "bsr"
    assert plan.format_choice.fill_ratio == 1.0
    assert plan.format_choice.block_shape == (8, 8)


def test_auto_keeps_csr_on_hostile_input(hostile):
    plan = _operator(hostile).planned(sparse_format="auto")
    assert plan.sparse_format == "csr"
    assert plan.spmv.storage is None
    assert "safe default" in plan.format_choice.reason


def test_env_override_beats_config(blocky, monkeypatch):
    op = _operator(blocky, sparse_format="bsr")
    assert op.planned().sparse_format == "bsr"
    monkeypatch.setenv(FORMAT_ENV_VAR, "csr")
    assert _operator(blocky, sparse_format="bsr").planned().sparse_format == "csr"


def test_explicit_argument_beats_env(blocky, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV_VAR, "bsr")
    plan = _operator(blocky).planned(sparse_format="csr")
    assert plan.sparse_format == "csr"


def test_config_rejects_unknown_format():
    with pytest.raises(ConfigurationError, match="unknown sparse format"):
        AbftConfig(sparse_format="hypersparse")


def test_planned_cache_is_keyed_on_format(blocky):
    op = _operator(blocky)
    bsr_plan = op.planned(sparse_format="bsr")
    assert op.planned(sparse_format="bsr") is bsr_plan
    csr_plan = op.planned(sparse_format="csr")
    assert csr_plan is not bsr_plan
    assert csr_plan.sparse_format == "csr"


# ----------------------------------------------------------------------
# Execution: clean multiplies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("requested", ["bsr"])
@pytest.mark.parametrize("n_shards", [1, 3])
def test_clean_multiply_bit_identical_to_storage(blocky, requested, n_shards):
    op = _operator(blocky)
    plan = ProtectedPlan(op, n_shards=n_shards, sparse_format=requested)
    storage = build_format(blocky, requested)
    b = np.random.default_rng(1).standard_normal(blocky.n_cols)
    reference = op.multiply(b)
    for _ in range(3):
        result = plan.multiply(b)
        # Bit-identical to the storage format's own summation...
        np.testing.assert_array_equal(result.value, storage.matvec(b))
        # ...and bound-level close to the CSR reference.
        np.testing.assert_allclose(result.value, reference.value, rtol=1e-12)
        assert not any(result.detections)


@pytest.mark.parametrize("n_shards", [1, 3])
def test_shards_cut_inside_tile_rows_keep_the_storage_bits(blocky, n_shards):
    """Checksum blocks of 12 rows on 8x8 tiles: shard cuts fall inside
    tile rows, and each shard still reduces its rows over their block
    row's tiles in storage order, so the plan returns the bits of
    ``BsrMatrix.matvec``."""
    op = FaultTolerantSpMV(blocky, config=AbftConfig(block_size=12))
    plan = ProtectedPlan(op, n_shards=n_shards, parallel="serial", sparse_format="bsr")
    assert plan.format_choice.block_shape == (8, 8)
    cuts = plan.spmv.row_cuts
    assert cuts.size == n_shards + 1
    assert n_shards == 1 or any(int(cut) % 8 for cut in cuts[1:-1])
    b = np.random.default_rng(7).standard_normal(blocky.n_cols)
    result = plan.multiply(b)
    assert not any(result.detections)
    np.testing.assert_array_equal(result.value, BsrMatrix.from_csr(blocky, 8).matvec(b))


@pytest.mark.parametrize("requested", ["bsr"])
def test_threaded_format_plan_matches_serial(blocky, requested):
    op = _operator(blocky)
    b = np.random.default_rng(2).standard_normal(blocky.n_cols)
    serial = ProtectedPlan(op, n_shards=3, parallel="serial",
                           sparse_format=requested).multiply(b).value.copy()
    plan = ProtectedPlan(op, n_shards=3, parallel="threads", sparse_format=requested)
    np.testing.assert_array_equal(plan.multiply(b).value, serial)


# ----------------------------------------------------------------------
# Execution: detection and correction on format storage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("requested", ["bsr"])
def test_tampered_multiply_corrects_on_format_storage(blocky, requested):
    """Tamper hooks route through the sequential fallback, whose
    correction kernels recompute flagged rows with the CSR reference:
    corrected rows carry CSR-recompute bits exactly, all other rows keep
    the storage pipeline's bits untouched."""
    op = _operator(blocky)
    plan = op.planned(sparse_format=requested)
    b = np.random.default_rng(3).standard_normal(blocky.n_cols)
    clean = plan.multiply(b).value.copy()
    result = plan.multiply(b, tamper=one_shot_burst(index=5))
    assert result.detections[0]
    assert result.corrected_blocks == (0,)
    # Block 0 (rows [0, BLOCK)) was recomputed through the CSR kernels...
    np.testing.assert_array_equal(
        result.value[:BLOCK], blocky.matvec(b)[:BLOCK]
    )
    np.testing.assert_allclose(result.value[:BLOCK], clean[:BLOCK], rtol=1e-12)
    # ...and every other row still holds the storage pipeline's bits.
    np.testing.assert_array_equal(result.value[BLOCK:], clean[BLOCK:])


@pytest.mark.parametrize("requested", ["bsr"])
def test_fused_threaded_correction_on_format_storage(blocky, requested):
    """A hook-free multiply on a 3-shard threads plan detects shard by
    shard on the tile storage; its first check flags block 1, which the
    correction loop recomputes through the CSR kernels.  Block 1 carries
    the CSR-recompute bits, every other row the storage pipeline's."""
    config = AbftConfig(block_size=BLOCK)
    bound = FaultTolerantSpMV(blocky, config=config).detector.bound
    telemetry = Telemetry(exporter=InMemoryExporter())
    op = FaultTolerantSpMV(
        blocky, config=config, telemetry=telemetry,
        bound_override=FirstCheckFlagsBlockOne(bound),
    )
    b = np.random.default_rng(4).standard_normal(blocky.n_cols)
    clean = build_format(blocky, requested).matvec(b)
    plan = ProtectedPlan(op, n_shards=3, parallel="threads", sparse_format=requested)
    assert plan.sparse_format == requested
    assert plan.backend_name == "threads"
    result = plan.multiply(b)
    shards = [
        e["attrs"]["shard"] for e in telemetry.events()
        if e["type"] == "span" and e["name"] == "plan.shard"
    ]
    assert sorted(shards) == [0, 1, 2]
    assert result.detections == (True, False)
    assert result.corrected_blocks == (1,)
    np.testing.assert_array_equal(
        result.value[BLOCK : 2 * BLOCK],
        blocky.matvec(b)[BLOCK : 2 * BLOCK],
    )
    np.testing.assert_array_equal(result.value[: BLOCK], clean[: BLOCK])
    np.testing.assert_array_equal(
        result.value[2 * BLOCK :], clean[2 * BLOCK :]
    )


def test_tampered_bsr_plan_calls_the_hook_like_a_csr_plan(blocky):
    """Storage changes the multiply's summation, never the fault campaign:
    a hooked multiply reports the same stages, sizes and work on BSR as
    on CSR, the corrected block included."""
    b = np.random.default_rng(6).standard_normal(blocky.n_cols)
    traces = {}
    for requested in ("csr", "bsr"):
        plan = _operator(blocky).planned(sparse_format=requested)
        assert plan.sparse_format == requested
        burst = one_shot_burst(index=17)
        calls = []

        def hook(stage, data, work, burst=burst, calls=calls):
            calls.append((stage, data.size, work))
            burst(stage, data, work)

        result = plan.multiply(b, tamper=hook)
        assert result.corrected_blocks == (1,)
        traces[requested] = calls
    assert [stage for stage, _, _ in traces["csr"]] == [
        "result", "t1", "beta", "t2", "corrected", "t2"
    ]
    assert traces["bsr"] == traces["csr"]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_plan_format_span_emitted_for_non_csr(blocky):
    telemetry = Telemetry(exporter=InMemoryExporter())
    op = FaultTolerantSpMV(
        blocky, config=AbftConfig(block_size=BLOCK), telemetry=telemetry
    )
    op.planned(sparse_format="bsr")
    spans = [
        e for e in telemetry.events()
        if e["type"] == "span" and e["name"] == "plan.format"
    ]
    assert len(spans) == 1
    attrs = spans[0]["attrs"]
    assert attrs["format"] == "bsr"
    assert attrs["requested"] == "bsr"
    assert attrs["fill_ratio"] == 1.0
    assert "reason" in attrs


def test_no_format_span_for_default_csr(blocky):
    """Default-CSR plans emit the recorded protocol stream (pinned by
    test_plan_telemetry_stream_matches_operator); the plan.format span
    only appears when a non-CSR format is requested."""
    telemetry = Telemetry(exporter=InMemoryExporter())
    op = FaultTolerantSpMV(
        blocky, config=AbftConfig(block_size=BLOCK), telemetry=telemetry
    )
    op.planned()
    assert not [
        e for e in telemetry.events()
        if e["type"] == "span" and e["name"] == "plan.format"
    ]


# ----------------------------------------------------------------------
# Solver integration
# ----------------------------------------------------------------------
def test_pcg_runs_on_bsr_storage(blocky):
    b = np.random.default_rng(5).standard_normal(blocky.n_cols)
    options = FtPcgOptions(block_size=BLOCK, sparse_format="bsr")
    result = run_pcg(blocky, b, scheme="abft", options=options)
    assert result.converged
    residual = b - blocky.matvec(result.x)
    assert np.linalg.norm(residual) <= options.tol * np.linalg.norm(b) * 10


def test_pcg_options_reject_unknown_format():
    with pytest.raises(ConfigurationError, match="unknown sparse format"):
        FtPcgOptions(sparse_format="dense")
