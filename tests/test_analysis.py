"""Tests for the analysis toolkit (traces, local maxima, Gaussian, ROC, stats)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.gaussian import (
    GaussianFit,
    fit_gaussian,
    overlap_threshold,
    pooled_std,
    separation,
)
from repro.analysis.local_maxima import (
    find_local_maxima,
    local_maxima_values,
    sum_of_local_maxima,
)
from repro.analysis.roc import roc_curve
from repro.analysis.stats import (
    bootstrap_mean_ci,
    empirical_rate,
    mad,
    normalised_difference,
    robust_zscore,
    welch_t_test,
)
from repro.analysis.traces import (
    abs_difference,
    difference,
    mean_trace,
    peak_to_peak,
    per_sample_std,
    signal_to_noise_ratio,
    stack_traces,
)

from oracles import roc_curve_serial

# -- local maxima -------------------------------------------------------------


def test_find_local_maxima_simple_peaks():
    signal = [0, 1, 0, 2, 0, 3, 0]
    peaks = find_local_maxima(signal)
    assert list(peaks) == [1, 3, 5]
    assert list(local_maxima_values(signal)) == [1, 2, 3]


def test_find_local_maxima_endpoints_excluded():
    assert list(find_local_maxima([5, 1, 1, 1, 9])) == []


def test_find_local_maxima_min_height_and_distance():
    signal = [0, 5, 0, 1, 0, 4, 0]
    assert list(find_local_maxima(signal, min_height=2)) == [1, 5]
    spaced = find_local_maxima(signal, min_distance=3)
    assert 1 in spaced and 3 not in spaced


def test_find_local_maxima_validation():
    with pytest.raises(ValueError):
        find_local_maxima(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        find_local_maxima([0, 1, 0], min_distance=0)
    assert list(find_local_maxima([1, 2])) == []


def test_sum_of_local_maxima():
    signal = [0, 1, 0, 2, 0, 3, 0]
    assert sum_of_local_maxima(signal) == 6.0
    assert sum_of_local_maxima([0, 0, 0]) == 0.0


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=3, max_size=60))
@settings(max_examples=50, deadline=None)
def test_local_maxima_properties(values):
    peaks = find_local_maxima(values)
    arr = np.asarray(values)
    for index in peaks:
        assert 0 < index < len(values) - 1
        assert arr[index] > arr[index - 1]
        assert arr[index] >= arr[index + 1]
    assert sum_of_local_maxima(values) <= max(1e-9, arr[peaks].sum() + 1e-9)


# -- traces -------------------------------------------------------------------


def test_stack_and_mean_traces():
    traces = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    matrix = stack_traces(traces)
    assert matrix.shape == (2, 2)
    assert np.array_equal(mean_trace(traces), np.array([2.0, 3.0]))
    with pytest.raises(ValueError):
        stack_traces([])
    with pytest.raises(ValueError):
        stack_traces([np.zeros(2), np.zeros(3)])


def test_difference_functions():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([0.0, 0.0, 0.0])
    assert np.array_equal(abs_difference(a, b), np.abs(a))
    assert np.array_equal(difference(a, b), a)
    with pytest.raises(ValueError):
        abs_difference(a, np.zeros(2))
    with pytest.raises(ValueError):
        difference(a, np.zeros(2))


def test_per_sample_std_and_peak_to_peak():
    traces = [np.array([0.0, 1.0]), np.array([2.0, 1.0])]
    std = per_sample_std(traces)
    assert std[0] > 0 and std[1] == 0
    assert per_sample_std([np.zeros(4)]).tolist() == [0, 0, 0, 0]
    assert peak_to_peak(np.array([-3.0, 5.0])) == 8.0


def test_signal_to_noise_ratio_increases_with_cleaner_traces(rng):
    base = np.sin(np.linspace(0, 10, 200)) * 100
    noisy = [base + rng.normal(0, 20, 200) for _ in range(5)]
    clean = [base + rng.normal(0, 2, 200) for _ in range(5)]
    assert signal_to_noise_ratio(clean) > signal_to_noise_ratio(noisy)


# -- gaussian -----------------------------------------------------------------


def test_fit_gaussian_and_pdf():
    fit = fit_gaussian([1.0, 2.0, 3.0, 4.0])
    assert fit.mean == pytest.approx(2.5)
    assert fit.std > 0
    assert fit.pdf([2.5])[0] > fit.pdf([10.0])[0]
    assert fit.cdf(2.5) == pytest.approx(0.5)
    single = fit_gaussian([3.0])
    assert single.std == 0.0
    assert (single.cdf(2.999), single.cdf(3.0), single.cdf(4.0)) == (0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fit_gaussian([])
    with pytest.raises(ValueError):
        single.pdf([1.0])
    with pytest.raises(ValueError):
        GaussianFit(0.0, -1.0)


@pytest.mark.parametrize("mean, std", [(0.0, 1.0), (2.5, 0.3), (-40.0, 7.0)])
def test_gaussian_pdf_and_cdf_match_scipy_norm(mean, std):
    norm = pytest.importorskip("scipy.stats").norm
    fit = GaussianFit(mean, std)
    x = mean + std * np.linspace(-8.0, 8.0, 161)
    np.testing.assert_allclose(fit.pdf(x), norm.pdf(x, mean, std),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([fit.cdf(value) for value in x],
                               norm.cdf(x, mean, std), rtol=1e-12, atol=0)


def test_pooled_std_and_separation():
    genuine = [10.0, 11.0, 9.0, 10.5]
    infected = [15.0, 16.0, 14.0, 15.5]
    mu, sigma = separation(genuine, infected)
    assert mu == pytest.approx(5.0, abs=0.5)
    assert sigma == pytest.approx(pooled_std(genuine, infected))
    with pytest.raises(ValueError):
        pooled_std([1.0], [1.0, 2.0])


def test_overlap_threshold_is_midpoint():
    threshold = overlap_threshold(GaussianFit(0, 1), GaussianFit(10, 1))
    assert threshold == pytest.approx(5.0)
    assert overlap_threshold(GaussianFit(2, 0), GaussianFit(4, 0)) == 3.0


# -- roc ----------------------------------------------------------------------


def test_roc_curve_perfect_separation():
    curve = roc_curve([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert curve.auc() == pytest.approx(1.0)
    assert curve.equal_error_rate() == pytest.approx(0.0, abs=0.01)
    threshold, tpr = curve.operating_point(0.0)
    assert tpr == pytest.approx(1.0)


def test_roc_curve_no_separation():
    rng = np.random.default_rng(0)
    scores = rng.normal(0, 1, 200)
    curve = roc_curve(scores, scores)
    assert 0.45 < curve.auc() < 0.55
    assert 0.4 < curve.equal_error_rate() < 0.6


def test_roc_curve_validation():
    with pytest.raises(ValueError):
        roc_curve([], [1.0])
    with pytest.raises(ValueError):
        roc_curve_serial([], [1.0])


def test_roc_curve_matches_serial_reference_with_ties():
    rng = np.random.default_rng(3)
    # Heavy ties (scores quantised to a half-unit grid) exercise the
    # searchsorted side='right' boundary against the serial `>` scan.
    genuine = np.round(rng.normal(0, 2, 157) * 2) / 2
    infected = np.round(rng.normal(1, 2, 211) * 2) / 2
    fast = roc_curve(genuine, infected)
    serial = roc_curve_serial(genuine, infected)
    assert np.array_equal(fast.thresholds, serial.thresholds)
    assert np.array_equal(fast.false_positive_rates,
                          serial.false_positive_rates)
    assert np.array_equal(fast.true_positive_rates,
                          serial.true_positive_rates)


def test_operating_point_raises_on_infeasible_budget():
    curve = roc_curve([1.0, 2.0, 3.0], [2.5, 3.5])
    with pytest.raises(ValueError):
        curve.operating_point(-0.1)
    threshold, tpr = curve.operating_point(1.0)
    assert tpr == 1.0 and threshold < 2.5


# -- stats --------------------------------------------------------------------


def test_welch_t_test_detects_difference():
    statistic, p_value = welch_t_test([1, 1.1, 0.9, 1.05], [2, 2.1, 1.9, 2.05])
    assert p_value < 0.01
    assert statistic != 0
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


def test_normalised_difference_effect_size():
    assert normalised_difference([0, 0.1, -0.1, 0.05],
                                 [1, 1.1, 0.9, 1.05]) > 3
    assert normalised_difference([1.0, 1.0], [1.0, 1.0]) == 0.0


def test_mad_and_robust_zscore():
    values = [1.0, 1.1, 0.9, 1.0, 10.0]
    assert mad(values) < 0.2
    z = robust_zscore(values)
    assert abs(z[-1]) > 3
    assert robust_zscore([2.0, 2.0, 2.0]).tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        mad([])


def test_empirical_rate_and_bootstrap():
    assert empirical_rate([True, False, True, True]) == 0.75
    low, high = bootstrap_mean_ci([1.0, 2.0, 3.0, 4.0], seed=1)
    assert low <= 2.5 <= high
    with pytest.raises(ValueError):
        empirical_rate([])
    with pytest.raises(ValueError):
        bootstrap_mean_ci([1.0], confidence=1.5)
