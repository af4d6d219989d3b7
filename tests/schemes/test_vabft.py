"""The variance-adaptive scheme: estimator properties and end-to-end wins.

Pinned invariants:

* the Welford estimator matches NumPy's mean and the exact population
  std (within two ulps of each column's magnitude) on arbitrary sample
  batches, ignores non-finite observations, and never learns from
  flagged blocks;
* adaptive thresholds never exceed the analytical bound (the scheme is
  never less safe than the paper's), tighten monotonically with respect
  to the min-samples gate, and converge to ``mean + k_sigma * std``
  under stationary noise;
* on float32 storage ``vabft`` detects an injected error the analytical
  bound misses — the coverage gain the fig7 precision harness measures.
"""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AbftConfig
from repro.core.detector import DetectionReport
from repro.errors import ConfigurationError
from repro.schemes import make_scheme
from repro.schemes.vabft import (
    SyndromeVarianceEstimator,
    VarianceAdaptiveBound,
    VarianceAdaptiveSpMV,
)
from repro.sparse import random_spd

finite_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def sample_batches(draw, max_blocks=6, max_samples=24):
    n_blocks = draw(st.integers(1, max_blocks))
    n_samples = draw(st.integers(2, max_samples))
    rows = draw(
        st.lists(
            st.lists(finite_floats, min_size=n_blocks, max_size=n_blocks),
            min_size=n_samples,
            max_size=n_samples,
        )
    )
    return np.asarray(rows, dtype=np.float64)


# ----------------------------------------------------------------------
# Estimator properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(sample_batches())
def test_welford_matches_numpy(batch):
    estimator = SyndromeVarianceEstimator(batch.shape[1])
    for row in batch:
        estimator.update(row)
    np.testing.assert_allclose(
        estimator.means, batch.mean(axis=0), rtol=1e-10, atol=1e-12
    )
    # The reference is statistics.pstdev (exact arithmetic), not numpy's
    # two-pass std: on near-constant columns of magnitude ~1e6 the latter
    # is itself off by several ulps of the column, above any fixed atol.
    # The tolerance is two ulps of the column's magnitude, plus the square
    # root of the subnormal spacing of n squared deviations: columns below
    # ~1e-154 square into the underflow range.
    std = estimator.std()
    finfo = np.finfo(np.float64)
    underflow = float(np.sqrt(batch.shape[0] * finfo.smallest_subnormal))
    for column in range(batch.shape[1]):
        values = batch[:, column]
        np.testing.assert_allclose(
            std[column],
            statistics.pstdev(values.tolist()),
            rtol=1e-7,
            atol=2 * finfo.eps * float(np.max(np.abs(values))) + underflow,
        )
    assert np.all(estimator.counts == batch.shape[0])


@settings(max_examples=40, deadline=None)
@given(sample_batches(), st.integers(0, 5))
def test_nonfinite_observations_are_ignored(batch, poison_column):
    poison_column = poison_column % batch.shape[1]
    estimator = SyndromeVarianceEstimator(batch.shape[1])
    reference = SyndromeVarianceEstimator(batch.shape[1])
    for row in batch:
        reference.update(row)
        poisoned = row.copy()
        poisoned[poison_column] = np.nan
        estimator.update(poisoned)
        estimator.update(row)  # interleave a clean sample
    assert estimator.counts[poison_column] == batch.shape[0]
    keep = np.arange(batch.shape[1]) != poison_column
    assert np.all(estimator.counts[keep] == 2 * batch.shape[0])
    np.testing.assert_allclose(
        estimator.means[poison_column],
        reference.means[poison_column],
        rtol=1e-12,
    )


def test_flagged_blocks_do_not_learn():
    estimator = SyndromeVarianceEstimator(4)
    report = DetectionReport(
        flagged=np.array([2]),
        syndrome=np.array([1e-15, 2e-15, 5.0, 3e-15]),
        thresholds=np.full(4, 1e-10),
        blocks=np.arange(4),
        beta=2.0,
    )
    exceeded = np.array([False, False, True, False])
    estimator.observe_report(report, exceeded)
    assert list(estimator.counts) == [1, 1, 0, 1]
    # the corrupted block's huge syndrome never entered the noise model
    assert estimator.means[2] == 0.0


def test_degenerate_beta_skips_the_report():
    estimator = SyndromeVarianceEstimator(2)
    for beta in (0.0, np.inf, np.nan):
        estimator.observe_report(
            DetectionReport(
                flagged=np.array([], dtype=np.int64),
                syndrome=np.array([1e-15, 1e-15]),
                thresholds=np.full(2, 1e-10),
                blocks=np.arange(2),
                beta=beta,
            ),
            np.array([False, False]),
        )
    assert np.all(estimator.counts == 0)


# ----------------------------------------------------------------------
# Adaptive bound properties
# ----------------------------------------------------------------------
class _FlatBound:
    """Analytical stand-in: constant * beta for every block."""

    def __init__(self, n_blocks, constant):
        self.constants = np.full(n_blocks, constant)

    def thresholds(self, beta, blocks=None):
        constants = self.constants if blocks is None else self.constants[blocks]
        return constants * beta


@settings(max_examples=40, deadline=None)
@given(sample_batches(), st.floats(min_value=0.1, max_value=100.0))
def test_adaptive_threshold_never_exceeds_analytical(batch, beta):
    n_blocks = batch.shape[1]
    estimator = SyndromeVarianceEstimator(n_blocks)
    analytical = _FlatBound(n_blocks, 1e-3)
    bound = VarianceAdaptiveBound(
        estimator, analytical, floor=np.full(n_blocks, 1e-16), min_samples=2
    )
    for row in batch:
        estimator.update(row)
        assert np.all(
            bound.thresholds(beta) <= analytical.thresholds(beta) * (1 + 1e-12)
        )


def test_below_min_samples_falls_back_to_analytical():
    estimator = SyndromeVarianceEstimator(3)
    analytical = _FlatBound(3, 7.0)
    bound = VarianceAdaptiveBound(
        estimator, analytical, floor=np.full(3, 1e-16), min_samples=8
    )
    for _ in range(7):
        estimator.update(np.full(3, 1e-9))
    np.testing.assert_array_equal(bound.thresholds(2.0), analytical.thresholds(2.0))
    estimator.update(np.full(3, 1e-9))  # 8th sample crosses the gate
    assert np.all(bound.thresholds(2.0) < analytical.thresholds(2.0))


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=1e-12, max_value=1e-6),
    st.floats(min_value=0.01, max_value=0.5),
    st.integers(0, 2**16),
)
def test_convergence_under_stationary_noise(mu, rel_sigma, seed):
    """With many samples from N(mu, sigma), every block's learned constant
    converges to mu + k_sigma * sigma (within sampling error)."""
    sigma = rel_sigma * mu
    n_blocks, n_samples = 64, 500
    rng = np.random.default_rng(seed)
    estimator = SyndromeVarianceEstimator(n_blocks)
    bound = VarianceAdaptiveBound(
        estimator,
        _FlatBound(n_blocks, 1e3),  # analytical far above: never clips
        floor=np.zeros(n_blocks),
        k_sigma=6.0,
        min_samples=2,
    )
    for row in np.abs(rng.normal(mu, sigma, size=(n_samples, n_blocks))):
        estimator.update(row)
    # folded-normal mean/std differ from (mu, sigma) by < 2% at sigma/mu<=0.5
    learned = bound.thresholds(1.0)
    target = mu + 6.0 * sigma
    assert np.all(learned >= 0.5 * target)
    assert np.all(learned <= 1.5 * target)


def test_threshold_floor_prevents_zero_thresholds():
    estimator = SyndromeVarianceEstimator(2)
    bound = VarianceAdaptiveBound(
        estimator, _FlatBound(2, 1e3), floor=np.array([1e-14, 1e-14]), min_samples=1
    )
    estimator.update(np.zeros(2))  # an all-zero clean history
    assert np.all(bound.thresholds(1.0) >= 1e-14)


def test_invalid_parameters_raise():
    estimator = SyndromeVarianceEstimator(1)
    flat = _FlatBound(1, 1.0)
    with pytest.raises(ConfigurationError):
        VarianceAdaptiveBound(estimator, flat, np.array([0.0]), k_sigma=0.0)
    with pytest.raises(ConfigurationError):
        VarianceAdaptiveBound(estimator, flat, np.array([0.0]), min_samples=0)
    with pytest.raises(ConfigurationError):
        SyndromeVarianceEstimator(-1)


# ----------------------------------------------------------------------
# The scheme end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def f32_corpus():
    matrix = random_spd(96, 900, seed=7, dtype=np.float32)
    b = np.random.default_rng(123).standard_normal(96).astype(np.float32)
    return matrix, b


def test_vabft_exposes_no_beta_coefficients():
    """Planned execution must re-evaluate thresholds per call (they drift
    as the estimator learns), which ProtectedPlan does exactly when the
    bound has no beta_coefficients."""
    matrix = random_spd(32, 250, seed=1)
    scheme = make_scheme("vabft", matrix, config=AbftConfig(block_size=8))
    assert not hasattr(scheme.detector.bound, "beta_coefficients")


def test_factory_rejects_unknown_and_bad_options():
    matrix = random_spd(16, 60, seed=2)
    with pytest.raises(ConfigurationError, match="does not accept"):
        make_scheme("vabft", matrix, bound_override=None)
    with pytest.raises(ConfigurationError, match="k_sigma"):
        make_scheme("vabft", matrix, k_sigma="six")
    with pytest.raises(ConfigurationError, match="warmup"):
        make_scheme("vabft", matrix, warmup=True)


def test_warmup_seeds_every_block():
    matrix = random_spd(64, 500, seed=4)
    scheme = make_scheme("vabft", matrix, config=AbftConfig(block_size=16))
    assert isinstance(scheme, VarianceAdaptiveSpMV)
    assert np.all(scheme.estimator.counts >= scheme.warmup - 1)


def test_no_false_positives_across_operand_stream(f32_corpus):
    matrix, _ = f32_corpus
    scheme = make_scheme("vabft", matrix, config=AbftConfig(block_size=16))
    rng = np.random.default_rng(42)
    for scale_exp in range(-3, 4):
        b = (rng.standard_normal(96) * 10.0**scale_exp).astype(np.float32)
        result = scheme.multiply(b)
        assert not any(result.detections), f"false positive at 1e{scale_exp}"


def test_vabft_detects_what_analytical_misses_on_float32(f32_corpus):
    """The headline claim: an injected error sized between the adaptive
    and analytical thresholds is invisible to abft but caught by vabft."""
    matrix, b = f32_corpus
    config = AbftConfig(block_size=16)
    abft = make_scheme("abft", matrix, config=config)
    vabft = make_scheme("vabft", matrix, config=config)
    vabft.multiply(b.copy())  # one extra clean call to settle statistics

    beta = float(np.linalg.norm(b))
    analytical = abft.detector.bound.thresholds(beta)
    adaptive = vabft.detector.bound.thresholds(beta)
    # inject into the block with the largest gap, halfway (geometric mean)
    block = int(np.argmax(analytical / np.maximum(adaptive, 1e-300)))
    magnitude = float(np.sqrt(analytical[block] * adaptive[block]))
    row = block * 16

    def make_burst():
        state = {"armed": True}

        def hook(stage, data, work):
            if stage == "result" and state["armed"]:
                data[row] += magnitude
                state["armed"] = False

        return hook

    missed = abft.multiply(b.copy(), tamper=make_burst())
    caught = vabft.multiply(b.copy(), tamper=make_burst())
    assert not any(missed.detections), "error unexpectedly above analytical bound"
    assert any(caught.detections)
    assert block in caught.corrected_blocks


def test_planned_vabft_matches_unplanned(f32_corpus):
    matrix, b = f32_corpus
    config = AbftConfig(block_size=16)
    direct = make_scheme("vabft", matrix, config=config)
    planned_scheme = make_scheme("vabft", matrix, config=config)
    expected = direct.multiply(b.copy())
    # Bit-identity with the unplanned multiply is the CSR contract; pin
    # the format against a REPRO_FORMAT override.
    plan = planned_scheme.planned(n_shards=2, sparse_format="csr")
    got = plan.multiply(b.copy())
    np.testing.assert_array_equal(got.value, expected.value)
    assert got.detections == expected.detections


def test_negative_warmup_rejected():
    with pytest.raises(ConfigurationError, match="warmup must be >= 0"):
        VarianceAdaptiveSpMV(random_spd(16, 60, seed=2), warmup=-1)
