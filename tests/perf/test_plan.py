"""Bit-identity, caching and validation tests for the execution plans.

``ProtectedPlan.multiply`` is the one protected-multiply path, and
``FaultTolerantSpMV.multiply`` runs it on a lazily built one-shard
serial CSR plan.  The contract under test, for any kernel set and any
tamper sequence: value bits equal ``CsrMatrix.matvec`` (also after
correction), the first check flags what ``BlockAbftDetector.detect``
flags, the simulated cost is the detection graph's (plus recorded
correction costs), and tamper calls and telemetry follow recorded
sequences — all without per-call allocation.
"""

import hashlib

import numpy as np
import pytest

import repro.perf.backends as backends
from repro.core import AbftConfig, FaultTolerantSpMV
from repro.errors import ConfigurationError, ShapeMismatchError
from repro.kernels import VectorizedKernels
from repro.machine import ExecutionMeter
from repro.obs import InMemoryExporter, Telemetry
from repro.perf import BACKEND_ENV_VAR, ProtectedPlan, SpmvPlan
from repro.schemes import make_scheme
from repro.sparse import FORMAT_ENV_VAR, CooMatrix, random_spd
from tests.kernels.naive import NaiveKernels, kernels_installed

N = 256
BLOCK = 32
#: Shard counts the threaded fused path must reproduce bit for bit.
SHARD_COUNTS = (1, 2, 3, 4)

#: The operator's kernel set: the library's, and the naive oracle.
KERNEL_SETS = pytest.mark.parametrize(
    "kernels", [NaiveKernels, VectorizedKernels], ids=["naive", "vectorized"]
)


@pytest.fixture
def matrix():
    return random_spd(N, 2500, seed=21)


@pytest.fixture
def b():
    return np.random.default_rng(21).standard_normal(N)


def one_shot(stage_name, mutate):
    state = {"done": False}

    def hook(stage, data, work):
        if stage == stage_name and not state["done"]:
            mutate(data)
            state["done"] = True

    return hook


def recording(inner=None):
    """Tamper hook that logs every (stage, work) call it sees."""
    calls = []

    def hook(stage, data, work):
        calls.append((stage, float(work)))
        if inner is not None:
            inner(stage, data, work)

    return hook, calls


def threaded_plan(matrix, n_shards, **config_kwargs):
    """A ``threads`` plan with ``n_shards`` shards, pinned against
    ``REPRO_PARALLEL``/``REPRO_FORMAT`` overrides."""
    config = AbftConfig(block_size=BLOCK, **config_kwargs)
    op = FaultTolerantSpMV(matrix, config=config)
    return ProtectedPlan(op, n_shards=n_shards, parallel="threads", sparse_format="csr")


# ----------------------------------------------------------------------
# SpmvPlan
# ----------------------------------------------------------------------
def test_spmv_plan_matches_matvec_any_shard_count(matrix, b):
    expected = matrix.matvec(b)
    for n_shards in (1, 2, 3, 8, 64):
        plan = SpmvPlan(matrix, n_shards=n_shards)
        np.testing.assert_array_equal(plan.execute(b), expected)
        # Repeated execution reuses the same output buffer, same bits.
        out = plan.execute(b)
        assert out is plan.out
        np.testing.assert_array_equal(out, expected)


def test_spmv_plan_handles_empty_rows():
    csr = CooMatrix.from_entries(
        (6, 6), [(1, 1, 2.0), (1, 3, -1.0), (4, 0, 3.0)]
    ).to_csr()
    b = np.arange(1.0, 7.0)
    expected = csr.matvec(b)
    for n_shards in (1, 2, 3, 6):
        np.testing.assert_array_equal(
            SpmvPlan(csr, n_shards=n_shards).execute(b), expected
        )


def test_spmv_plan_all_empty_matrix():
    csr = CooMatrix.from_entries((4, 4), []).to_csr()
    plan = SpmvPlan(csr, n_shards=2)
    np.testing.assert_array_equal(plan.execute(np.ones(4)), np.zeros(4))


def test_spmv_plan_explicit_row_cuts(matrix, b):
    plan = SpmvPlan(matrix, row_cuts=np.array([0, 10, 200, N]))
    assert plan.n_shards == 3
    np.testing.assert_array_equal(plan.execute(b), matrix.matvec(b))


@pytest.mark.parametrize(
    "cuts",
    [
        [1, N],  # does not start at 0
        [0, N - 1],  # does not end at n_rows
        [0, 100, 100, N],  # not strictly increasing
        [0, 200, 100, N],  # decreasing
    ],
)
def test_spmv_plan_rejects_bad_row_cuts(matrix, cuts):
    with pytest.raises(ConfigurationError, match="row_cuts"):
        SpmvPlan(matrix, row_cuts=np.array(cuts))


def test_spmv_plan_rejects_bad_operand(matrix):
    with pytest.raises(ShapeMismatchError):
        SpmvPlan(matrix).execute(np.ones(N + 1))


# ----------------------------------------------------------------------
# ProtectedPlan and FaultTolerantSpMV.multiply against references
# ----------------------------------------------------------------------
#: Tamper calls of the one-shot "result" corruption below: the four
#: detection stages, then one "corrected" call per flagged block (0, 3,
#: 7) and the re-verification of their 96 rows.
TAMPERED_CALLS = [
    ("result", 5000.0), ("t1", 1026.0), ("beta", 512.0), ("t2", 512.0),
    ("corrected", 568.0), ("corrected", 598.0), ("corrected", 554.0),
    ("t2", 192.0),
]
#: Simulated cost of that multiply: detection plus one correction round.
TAMPERED_SECONDS = float.fromhex("0x1.7dae81882adc4p-15")
TAMPERED_FLOPS = 8996.0


def _assert_results_identical(planned, unplanned):
    np.testing.assert_array_equal(planned.value, unplanned.value)
    assert planned.detected == unplanned.detected
    assert planned.corrected_blocks == unplanned.corrected_blocks
    assert planned.rounds == unplanned.rounds
    assert planned.exhausted == unplanned.exhausted
    assert planned.seconds == unplanned.seconds
    assert planned.flops == unplanned.flops


def _flags(op, b, product):
    """Blocks the detector's own full pass flags for ``(b, product)``."""
    return tuple(int(x) for x in op.detector.detect(b, product).flagged)


def _assert_clean_reference(result, op, b):
    """A clean multiply against references outside the plan: the bits of
    ``CsrMatrix.matvec``, the flags of ``BlockAbftDetector.detect`` and
    the simulated cost of the detection graph."""
    product = op.matrix.matvec(b)
    np.testing.assert_array_equal(result.value, product)
    assert result.detected == (_flags(op, b, product),) == ((),)
    assert result.corrected_blocks == ()
    assert result.rounds == 0
    assert not result.exhausted
    graph = op.detection_graph()
    assert result.seconds == op.machine.makespan(graph)
    assert result.flops == graph.total_work()


@KERNEL_SETS
def test_clean_multiply_bit_identical(matrix, b, kernels):
    with kernels_installed(kernels()):
        op = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=BLOCK))
    # Bit-identity with CsrMatrix.matvec is the *CSR* contract; pin it so
    # a REPRO_FORMAT override doesn't change the storage under test
    # (format coverage lives in test_format_plan.py).
    plan = op.planned(sparse_format="csr")
    planned = plan.multiply(b)
    value = planned.value.copy()
    _assert_clean_reference(planned, op, b)
    unplanned = op.multiply(b)
    np.testing.assert_array_equal(value, unplanned.value)
    _assert_clean_reference(unplanned, op, b)


@KERNEL_SETS
def test_tampered_multiply_bit_identical(matrix, b, kernels):
    with kernels_installed(kernels()):
        op = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=BLOCK))
    plan = op.planned(sparse_format="csr")

    def mutate(d):
        d[0] += 1.0
        d[100] -= 2.0
        d[255] = np.nan

    product = matrix.matvec(b)
    corrupted = product.copy()
    mutate(corrupted)
    first_flags = _flags(op, b, corrupted)
    assert first_flags == (0, 3, 7)
    for multiply in (plan.multiply, op.multiply):
        hook, calls = recording(one_shot("result", mutate))
        result = multiply(b, tamper=hook)
        np.testing.assert_array_equal(result.value, product)
        assert result.detected == (first_flags, ())
        assert result.corrected_blocks == first_flags
        assert result.rounds == 1
        assert not result.exhausted
        assert result.seconds == TAMPERED_SECONDS
        assert result.flops == TAMPERED_FLOPS
        assert calls == TAMPERED_CALLS  # same stages, same work charges


def test_persistent_tamper_exhausts_identically(matrix, b):
    """Every recomputation is re-corrupted: both paths burn the full
    round budget and report exhaustion with identical history."""
    config = AbftConfig(block_size=BLOCK, max_correction_rounds=3)
    op = FaultTolerantSpMV(matrix, config=config)
    plan = op.planned(sparse_format="csr")

    def persistent(stage, data, work):
        if stage in ("result", "corrected"):
            data[0] += 5.0

    # Each round recomputes block 0 and re-corrupts its first row; rounds
    # 2 and 3 also refresh the block's operand checksum.
    expected = matrix.matvec(b)
    expected[0] += 5.0
    expected_calls = [
        ("result", 5000.0), ("t1", 1026.0), ("beta", 512.0), ("t2", 512.0),
        ("corrected", 568.0), ("t2", 64.0),
        ("corrected", 568.0), ("t1", 110.0), ("t2", 64.0),
        ("corrected", 568.0), ("t1", 110.0), ("t2", 64.0),
    ]
    for multiply in (plan.multiply, op.multiply):
        hook, calls = recording(persistent)
        result = multiply(b, tamper=hook)
        assert result.exhausted
        assert result.rounds == 3
        np.testing.assert_array_equal(result.value, expected)
        assert result.detected == ((0,),) * 4
        assert result.detected[0] == _flags(op, b, expected)
        assert result.corrected_blocks == (0,)
        assert result.seconds == float.fromhex("0x1.669ced0b30b5ap-14")
        assert result.flops == 9200.0
        assert calls == expected_calls


# ----------------------------------------------------------------------
# The clean-path contract: every result field, pinned
# ----------------------------------------------------------------------
#: SHA-256 prefix of ``matrix.matvec(b)`` at the fixtures (every case
#: below returns the clean product, corrected or not).
VALUE_DIGEST = "5c5d93af53b33abf"
#: Every block the vanishing bound flags, round after round.
ALL_FLAGGED = (0, 1, 3, 4, 5, 6, 7)
#: ``(detections, corrections, rounds, seconds, flops, exhausted,
#: detected_blocks, corrected_blocks)`` per case, recorded: the clean path
#: may skip work, never change a field.
CONTRACT = {
    "clean": (
        (False,), (), 0, "0x1.abd1aa821f298p-16", "0x1.ba30000000000p+12",
        False, ((),), (),
    ),
    "clean_hook_meter": (
        (False,), (), 0, "0x1.abd1aa8220000p-16", "0x1.ba30000000000p+12",
        False, ((),), (),
    ),
    "corrected": (
        (True, False), ((0, 32), (96, 128)), 1, "0x1.7dae81882adc4p-15",
        "0x1.05b8000000000p+13", False, ((0, 3), ()), (0, 3),
    ),
    "exhausted": (
        (True,) * 4,
        tuple((32 * k, 32 * k + 32) for k in ALL_FLAGGED) * 3,
        3, "0x1.669ced0b30b5ap-14", "0x1.6930000000000p+14", True,
        (ALL_FLAGGED,) * 4, ALL_FLAGGED,
    ),
}
#: Hook calls of one clean multiply: the four detection stages.
CLEAN_CALLS = [("result", 5000.0), ("t1", 1026.0), ("beta", 512.0), ("t2", 512.0)]


def _fields(result):
    return (
        result.detections, result.corrections, result.rounds,
        float(result.seconds).hex(), float(result.flops).hex(), result.exhausted,
        result.detected_blocks, result.corrected_blocks,
    )


def _contract_plan(matrix, backend, **config_kwargs):
    op = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=BLOCK, **config_kwargs))
    n_shards = 1 if backend == "serial" else 3
    return ProtectedPlan(op, n_shards=n_shards, parallel=backend, sparse_format="csr")


def _assert_contract(result, case):
    assert hashlib.sha256(result.value.tobytes()).hexdigest()[:16] == VALUE_DIGEST
    assert _fields(result) == CONTRACT[case]


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_clean_multiply_without_hook_or_meter_keeps_every_field(matrix, b, backend):
    plan = _contract_plan(matrix, backend)
    for _ in range(2):
        _assert_contract(plan.multiply(b), "clean")


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_clean_multiply_with_noop_hook_and_meter_keeps_every_field(matrix, b, backend):
    """How ``run_pcg`` calls the plan: a hook that corrupts nothing and
    the solve's meter, already charged (the result's cost is the
    difference of two meter snapshots, not the pre-simulated value)."""
    plan = _contract_plan(matrix, backend)
    meter = ExecutionMeter(machine=plan.operator.machine)
    meter.advance(1.0 / 3.0, 7.0)
    before = meter.snapshot()
    hook, calls = recording()
    result = plan.multiply(b, tamper=hook, meter=meter)
    _assert_contract(result, "clean_hook_meter")
    assert calls == CLEAN_CALLS
    assert meter.snapshot() == (
        before[0] + plan._detect_seconds, before[1] + plan._detect_flops
    )


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_corrected_multiply_keeps_every_field(matrix, b, backend):
    def mutate(d):
        d[0] += 1.0
        d[100] -= 2.0

    plan = _contract_plan(matrix, backend)
    _assert_contract(plan.multiply(b, tamper=one_shot("result", mutate)), "corrected")


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_exhausted_multiply_keeps_every_field(matrix, b, backend):
    """No hook: a threads plan detects fused, then runs every round in
    the correction loop."""
    plan = _contract_plan(matrix, backend, bound_scale=1e-12, max_correction_rounds=3)
    _assert_contract(plan.multiply(b), "exhausted")


def test_clean_multiply_without_meter_leaves_a_passed_meter_alone(matrix, b):
    plan = _contract_plan(matrix, "serial")
    meter = ExecutionMeter(machine=plan.operator.machine)
    plan.multiply(b)
    assert meter.snapshot() == (0.0, 0.0)
    plan.multiply(b, meter=meter)
    assert meter.snapshot() == (plan._detect_seconds, plan._detect_flops)


def test_vabft_report_hook_sees_every_evaluation(matrix, b):
    """The clean path skips its report only while nobody watches: vabft's
    report hook still learns from every check, planned or not."""
    op = make_scheme("vabft", matrix, config=AbftConfig(block_size=BLOCK))
    plan = op.planned(sparse_format="csr")
    before = op.estimator.counts.copy()
    for _ in range(3):
        assert plan.multiply(b).clean
    for _ in range(2):
        assert op.multiply(b).clean
    np.testing.assert_array_equal(op.estimator.counts - before, 5)


def test_near_miss_hook_sees_every_clean_block(matrix, b):
    op = FaultTolerantSpMV(
        matrix, config=AbftConfig(block_size=BLOCK, near_miss_fraction=0.0)
    )
    seen = []
    op.detector.near_miss_hook = seen.append
    plan = op.planned(sparse_format="csr")
    for _ in range(2):
        assert plan.multiply(b).clean
    assert op.multiply(b).clean
    n_blocks = op.detector.n_blocks
    assert [miss.block for miss in seen] == list(range(n_blocks)) * 3


# ----------------------------------------------------------------------
# FaultTolerantSpMV.multiply: the lazily built one-shard serial plan
# ----------------------------------------------------------------------
def test_operator_holds_no_plan_after_construction(matrix, b):
    op = FaultTolerantSpMV(matrix, block_size=BLOCK)
    assert op._serial_plan is None
    assert op._plan is None
    op.multiply(b)
    serial = op._serial_plan
    assert serial is not None
    assert op._plan is None
    op.multiply(b)
    assert op._serial_plan is serial


def test_operator_multiply_value_survives_the_next_call(matrix, b):
    op = FaultTolerantSpMV(matrix, block_size=BLOCK)
    first = op.multiply(b).value
    kept = first.copy()
    second = op.multiply(2.0 * b).value
    assert second is not first
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(second, matrix.matvec(2.0 * b))


@pytest.mark.parametrize(
    "variable, value", [(BACKEND_ENV_VAR, "threads"), (FORMAT_ENV_VAR, "bsr")]
)
def test_operator_multiply_ignores_plan_overrides(monkeypatch, matrix, b, variable, value):
    """``op.multiply`` never fans out or restages ``A``: its plan is one
    serial CSR shard whatever ``REPRO_PARALLEL``/``REPRO_FORMAT`` say."""
    monkeypatch.setenv(variable, value)
    op = FaultTolerantSpMV(matrix, block_size=BLOCK)
    result = op.multiply(b)
    plan = op._serial_plan
    assert plan.backend_name == "serial"
    assert plan.n_shards == plan.spmv.n_shards == 1
    assert plan.sparse_format == "csr"
    np.testing.assert_array_equal(result.value, matrix.matvec(b))


def test_operator_multiply_keeps_its_own_cache_slot(matrix, b):
    """``op.multiply`` is not a ``planned()`` lookup: it bumps no
    ``plan.cache_hits``, and alternating the two never rebuilds a plan."""
    telemetry = Telemetry(exporter=InMemoryExporter())
    op = FaultTolerantSpMV(matrix, block_size=BLOCK, telemetry=telemetry)
    for _ in range(3):
        op.multiply(b)
    assert telemetry.registry.counter("plan.cache_hits").value == 0.0
    assert all(event["name"] != "plan.cache_hits" for event in telemetry.events())
    planned = op.planned(sparse_format="csr")
    serial = op._serial_plan
    op.multiply(b)
    assert op.planned(sparse_format="csr") is planned
    op.multiply(b)
    assert op._serial_plan is serial


def test_plan_without_beta_coefficients_matches(matrix, b):
    """Bounds that expose no coefficients fall back to per-call
    thresholds — values must not change."""

    class _OpaqueBound:
        def __init__(self, inner):
            self._inner = inner

        def thresholds(self, beta, blocks):
            return self._inner.thresholds(beta, blocks)

    op = FaultTolerantSpMV(matrix, block_size=BLOCK)
    reference = op.multiply(b)
    op.detector.bound = _OpaqueBound(op.detector.bound)
    plan = ProtectedPlan(op, sparse_format="csr")
    assert plan._beta_coefficients is None
    planned = plan.multiply(b)
    np.testing.assert_array_equal(planned.value, reference.value)
    assert planned.detected == reference.detected


def test_result_value_is_the_plan_buffer(matrix, b):
    op = FaultTolerantSpMV(matrix, block_size=BLOCK)
    plan = op.planned(sparse_format="csr")
    first = plan.multiply(b).value
    second = plan.multiply(2.0 * b).value
    assert first is second  # documented buffer reuse
    np.testing.assert_array_equal(second, matrix.matvec(2.0 * b))


def test_protected_plan_rejects_bad_shards(matrix):
    op = FaultTolerantSpMV(matrix, block_size=BLOCK)
    with pytest.raises(ConfigurationError, match="n_shards"):
        ProtectedPlan(op, n_shards=0)


# ----------------------------------------------------------------------
# planned() cache
# ----------------------------------------------------------------------
def test_planned_caches_one_plan(matrix):
    telemetry = Telemetry(exporter=InMemoryExporter())
    op = FaultTolerantSpMV(matrix, block_size=BLOCK, telemetry=telemetry)
    first = op.planned()
    assert op.planned() is first
    assert op.planned() is first
    assert telemetry.registry.counter("plan.cache_hits").value == 2.0


def test_planned_rebuilds_on_shard_change(matrix):
    op = FaultTolerantSpMV(matrix, block_size=BLOCK)
    one = op.planned(n_shards=1)
    two = op.planned(n_shards=2)
    assert two is not one
    assert two.n_shards == 2
    assert op.planned(n_shards=2) is two


@pytest.mark.parametrize("source", ["config", "env"])
@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_planned_defaults_to_backend_worker_count(monkeypatch, backend, source):
    """``planned()`` takes its shard count from the resolved backend:
    serial plans get one shard, threads plans one per worker and the
    fused multi-shard path."""
    monkeypatch.setattr(backends.os, "cpu_count", lambda: 8)  # 4 workers
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    if source == "env":
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        config = AbftConfig(block_size=BLOCK)
    else:
        config = AbftConfig(block_size=BLOCK, parallel=backend)
    matrix = random_spd(4096, 40_000, seed=22)
    b = np.random.default_rng(22).standard_normal(matrix.n_cols)
    op = FaultTolerantSpMV(matrix, config=config)
    plan = op.planned(sparse_format="csr")
    expected = 1 if backend == "serial" else 4
    assert plan.backend_name == backend
    assert plan.n_shards == plan.spmv.n_shards == expected
    assert plan.backend.parallel_active is (backend != "serial")
    np.testing.assert_array_equal(plan.multiply(b).value, op.multiply(b).value)


# ----------------------------------------------------------------------
# Threaded fused path
# ----------------------------------------------------------------------
def test_threaded_clean_multiply_matches_sequential(matrix, b):
    reference = FaultTolerantSpMV(
        matrix, config=AbftConfig(block_size=BLOCK, kernel="vectorized")
    ).multiply(b)
    for n_shards in SHARD_COUNTS:
        plan = threaded_plan(matrix, n_shards)
        assert plan.spmv.n_shards == n_shards
        for _ in range(3):
            planned = plan.multiply(b)
            np.testing.assert_array_equal(planned.value, reference.value)
            assert planned.detected == reference.detected
            assert planned.seconds == reference.seconds
            assert planned.flops == reference.flops


def test_threaded_correction_matches_sequential(matrix, b):
    """A vanishing bound flags every block persistently; the threaded
    first round + sequential continuation must replay the sequential
    operator bit for bit, exhaustion included."""
    scaled = dict(block_size=BLOCK, bound_scale=1e-12, max_correction_rounds=3)
    reference = FaultTolerantSpMV(
        matrix, config=AbftConfig(kernel="vectorized", **scaled)
    ).multiply(b)
    assert reference.exhausted  # the scenario really does flag blocks
    for n_shards in SHARD_COUNTS:
        plan = threaded_plan(
            matrix, n_shards, bound_scale=1e-12, max_correction_rounds=3
        )
        assert plan.spmv.n_shards == n_shards
        _assert_results_identical(plan.multiply(b), reference)


def test_tamper_falls_back_to_sequential_path(matrix, b):
    """Fault campaigns must see the contractual stage sequence even on a
    multi-shard threaded plan."""
    plan = threaded_plan(matrix, 3)
    hook, calls = recording()
    plan.multiply(b, tamper=hook)
    assert [stage for stage, _ in calls] == ["result", "t1", "beta", "t2"]


# ----------------------------------------------------------------------
# Telemetry equivalence
# ----------------------------------------------------------------------
def _scrubbed(events):
    """Events with wall-clock noise removed (timestamps, timing values)."""
    drop = {"t", "start", "end"}
    scrubbed = []
    for event in events:
        clean = {k: v for k, v in event.items() if k not in drop}
        if str(clean.get("name", "")).endswith(".seconds"):
            clean.pop("value", None)
        scrubbed.append(clean)
    return scrubbed


#: Events of building an operator with telemetry on (checksum encoding).
BUILD_EVENTS = [
    ("hist", "kernel.encode.seconds"),
    ("span", "checksum.build"),
    ("gauge", "abft.n_blocks"),
]
#: Events of one clean protected multiply: kernel timings of t2 and the
#: comparison, the check counter, the syndrome margins, then the closing
#: detect and multiply spans.
MULTIPLY_EVENTS = [
    ("hist", "kernel.result_checksums.seconds"),
    ("hist", "kernel.compare_syndromes.seconds"),
    ("counter", "abft.checks"),
    ("hist", "abft.syndrome_margin"),
    ("span", "abft.detect"),
    ("span", "abft.multiply"),
]


def test_plan_telemetry_stream_matches_operator(matrix, b):
    """A *serial* plan and ``op.multiply`` emit the recorded event
    stream; a fused multi-shard plan adds ``plan.shard`` spans by design
    (see ``test_threaded_plan_shard_spans_report_owner``)."""
    config = AbftConfig(block_size=BLOCK, kernel="vectorized", parallel="serial")
    tel_op = Telemetry(exporter=InMemoryExporter())
    tel_plan = Telemetry(exporter=InMemoryExporter())
    op = FaultTolerantSpMV(matrix, config=config, telemetry=tel_op)
    planned_op = FaultTolerantSpMV(matrix, config=config, telemetry=tel_plan)
    # The explicit argument pins serial against a REPRO_PARALLEL override,
    # which beats the config field.
    plan = ProtectedPlan(planned_op, parallel="serial", sparse_format="csr")
    for _ in range(3):
        op.multiply(b)
        plan.multiply(b)
    expected = BUILD_EVENTS + 3 * MULTIPLY_EVENTS
    for telemetry in (tel_op, tel_plan):
        assert [(e["type"], e["name"]) for e in telemetry.events()] == expected
    assert _scrubbed(tel_plan.events()) == _scrubbed(tel_op.events())
