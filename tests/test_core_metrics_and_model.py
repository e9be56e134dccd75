"""Tests for the delay model (Eqs. 2-4) and the detection metrics (Eq. 5)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.delay_model import (
    NetDelayModel,
    delay_difference,
    detectable_trojan_delay_ps,
    expected_difference_noise_ps,
)
from repro.core.metrics import (
    L1TraceMetric,
    LocalMaximaSumMetric,
    MaxDifferenceMetric,
    detection_probability,
    false_negative_rate,
    required_separation,
)

# -- Eq. (5) -------------------------------------------------------------------


def test_false_negative_rate_known_points():
    # mu = 0: the populations coincide, FN = 50 %.
    assert false_negative_rate(0.0, 1.0) == pytest.approx(0.5)
    # Very large separation: FN ~ 0.
    assert false_negative_rate(100.0, 1.0) == pytest.approx(0.0, abs=1e-9)
    # Known value: mu = 2 sigma sqrt(2) -> FN = (1 - erf(1)) / 2.
    sigma = 3.0
    mu = 2 * sigma * math.sqrt(2)
    assert false_negative_rate(mu, sigma) == pytest.approx(
        0.5 - 0.5 * math.erf(1.0)
    )


def test_false_negative_rate_degenerate_sigma():
    assert false_negative_rate(1.0, 0.0) == 0.0
    assert false_negative_rate(0.0, 0.0) == 0.5
    # Zero spread, infected mean below the genuine one: every infected
    # device falls below the symmetric threshold (the sigma -> 0 limit).
    assert false_negative_rate(-1.0, 0.0) == 1.0
    assert false_negative_rate(-1.0, 1e-12) == 1.0
    with pytest.raises(ValueError):
        false_negative_rate(1.0, -1.0)


def test_detection_probability_complements_fn():
    assert detection_probability(2.0, 1.0) == pytest.approx(
        1.0 - false_negative_rate(2.0, 1.0)
    )


def test_required_separation_inverts_fn_rate():
    sigma = 5.0
    for target in (0.26, 0.17, 0.05):
        mu = required_separation(target, sigma)
        assert false_negative_rate(mu, sigma) == pytest.approx(target, abs=1e-6)
    assert required_separation(0.3, 0.0) == 0.0
    with pytest.raises(ValueError):
        required_separation(0.7, 1.0)


def test_paper_headline_rates_imply_increasing_separation():
    """The paper's 26/17/5 % FN rates correspond to growing mu/sigma."""
    sigma = 1.0
    separations = [required_separation(rate, sigma) for rate in (0.26, 0.17, 0.05)]
    assert separations[0] < separations[1] < separations[2]


@given(st.floats(min_value=-50.0, max_value=50.0),
       st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=10.0)))
@settings(max_examples=60, deadline=None)
def test_fn_rate_bounds_and_monotonicity(mu, sigma):
    rate = false_negative_rate(mu, sigma)
    assert 0.0 <= rate <= 1.0
    if mu >= 0:
        assert rate <= 0.5
    assert false_negative_rate(mu + 1.0, sigma) <= rate + 1e-12
    if sigma == 0 and abs(mu) >= 0.01:
        # The degenerate branch is the sigma -> 0 limit of Eq. (5).
        assert rate == false_negative_rate(mu, 1e-12)


# -- trace metrics ---------------------------------------------------------------


def test_local_maxima_sum_metric_scores_offsets_higher():
    reference = np.zeros(100)
    reference[::10] = 5.0
    clean = reference + 0.1
    shifted = reference.copy()
    shifted[::10] += 3.0
    metric = LocalMaximaSumMetric(min_peak_distance=2)
    scores = metric.scores_matrix(np.vstack([clean, shifted]), reference)
    assert scores.shape == (2,)
    assert scores[1] > scores[0]


def test_baseline_metrics():
    reference = np.zeros(10)
    trace = np.zeros(10)
    trace[3] = 4.0
    matrix = trace[None, :]
    assert L1TraceMetric().scores_matrix(matrix, reference)[0] == \
        pytest.approx(0.4)
    assert MaxDifferenceMetric().scores_matrix(matrix, reference)[0] == \
        pytest.approx(4.0)


def test_local_maxima_metric_difference_trace():
    """Every metric scores the absolute difference |trace - reference|:
    a trace and its mirror image about the reference score the same."""
    rng = np.random.default_rng(5)
    reference = rng.normal(0, 3, 64)
    trace = reference + rng.normal(0, 1, 64)
    mirrored = 2 * reference - trace
    for metric in (LocalMaximaSumMetric(min_peak_distance=1),
                   L1TraceMetric(), MaxDifferenceMetric()):
        scores = metric.scores_matrix(np.vstack([trace, mirrored]),
                                      reference)
        assert scores[0] == scores[1]
    spike = np.array([0.0, 1.0, 0.0, -2.0, 0.0])
    assert LocalMaximaSumMetric(min_peak_distance=1).scores_matrix(
        spike[None, :], np.zeros(5))[0] == 3.0


# -- delay model ------------------------------------------------------------------


def test_net_delay_model_composition(rng):
    clean = NetDelayModel("n", static_ps=1000.0, process_variation_ps=50.0)
    infected = NetDelayModel("n", static_ps=1000.0, process_variation_ps=50.0,
                             trojan_extra_ps=300.0)
    assert not clean.is_infected
    assert infected.is_infected
    assert clean.nominal_delay_ps() == pytest.approx(1050.0)
    assert infected.nominal_delay_ps() == pytest.approx(1350.0)
    measured = clean.measure(rng, noise_sigma_ps=0.0)
    assert measured == pytest.approx(1050.0)
    with pytest.raises(ValueError):
        NetDelayModel("n", static_ps=-1.0)
    with pytest.raises(ValueError):
        clean.measure(rng, noise_sigma_ps=-1.0)
    with pytest.raises(ValueError):
        clean.measure_mean(rng, repetitions=0)


def test_delay_difference_observable(rng):
    clean = NetDelayModel("n", static_ps=1000.0)
    infected = NetDelayModel("n", static_ps=1000.0, trojan_extra_ps=400.0)
    golden_mean = clean.measure_mean(rng, repetitions=10, noise_sigma_ps=20.0)
    clean_diff = delay_difference(golden_mean, clean.measure(rng, 20.0))
    infected_diff = delay_difference(golden_mean, infected.measure(rng, 20.0))
    assert infected_diff > clean_diff
    assert infected_diff == pytest.approx(400.0, abs=150.0)


def test_expected_noise_and_detectability_threshold():
    noise = expected_difference_noise_ps(20.0, golden_repetitions=10)
    assert noise == pytest.approx(20.0 * math.sqrt(1.1))
    threshold = detectable_trojan_delay_ps(20.0, 10, confidence_sigmas=3.0)
    assert threshold == pytest.approx(3.0 * noise)
    with pytest.raises(ValueError):
        expected_difference_noise_ps(-1.0)
    with pytest.raises(ValueError):
        detectable_trojan_delay_ps(10.0, 10, confidence_sigmas=0.0)


def test_mean_of_repetitions_reduces_noise(rng):
    model = NetDelayModel("n", static_ps=1000.0)
    singles = [model.measure(rng, 30.0) for _ in range(200)]
    means = [model.measure_mean(rng, 10, 30.0) for _ in range(200)]
    assert np.std(means) < np.std(singles)
