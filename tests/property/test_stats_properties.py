"""Hypothesis properties of the statistics layer."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    ReplicaSampler,
    confidence_interval,
    geometric_mean,
    overhead_percent,
)

finite_positive = st.floats(min_value=0.01, max_value=1e9,
                            allow_nan=False, allow_infinity=False)


@given(st.lists(finite_positive, min_size=2, max_size=100))
@settings(max_examples=100)
def test_ci_mean_is_sample_mean(samples):
    m = confidence_interval(samples)
    assert m.mean == sum(samples) / len(samples) or \
        math.isclose(m.mean, sum(samples) / len(samples), rel_tol=1e-9)


@given(st.lists(finite_positive, min_size=2, max_size=100))
@settings(max_examples=100)
def test_ci_half_width_nonnegative(samples):
    assert confidence_interval(samples).ci_half_width >= 0


@given(finite_positive, st.integers(min_value=2, max_value=50))
@settings(max_examples=50)
def test_ci_of_identical_samples_is_zero_width(value, n):
    m = confidence_interval([value] * n)
    # Zero up to float rounding of the sample variance.
    assert m.ci_half_width <= 1e-6 * value


@given(st.lists(finite_positive, min_size=1, max_size=50))
@settings(max_examples=100)
def test_geomean_between_min_and_max(values):
    g = geometric_mean(values)
    assert min(values) * (1 - 1e-9) <= g <= max(values) * (1 + 1e-9)


@given(st.lists(finite_positive, min_size=1, max_size=30), finite_positive)
@settings(max_examples=50)
def test_geomean_scales_multiplicatively(values, factor):
    scaled = geometric_mean([v * factor for v in values])
    assert math.isclose(scaled, geometric_mean(values) * factor, rel_tol=1e-6)


@given(finite_positive, finite_positive)
@settings(max_examples=100)
def test_overhead_percent_sign_matches_direction(mitigated, baseline):
    pct = overhead_percent(mitigated, baseline)
    if mitigated > baseline:
        assert pct > 0
    elif mitigated < baseline:
        assert pct < 0
    else:
        assert pct == 0


@given(st.integers(min_value=0, max_value=2**31), finite_positive)
@settings(max_examples=50)
def test_noisy_sampler_stays_positive_and_seeded(seed, value):
    a = ReplicaSampler([value], sigma=0.05, seed=seed)
    b = ReplicaSampler([value], sigma=0.05, seed=seed)
    samples_a = [a() for _ in range(10)]
    samples_b = [b() for _ in range(10)]
    assert samples_a == samples_b
    assert all(s > 0 for s in samples_a)
