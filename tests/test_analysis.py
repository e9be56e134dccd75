"""Tests for the analysis toolkit (traces, local maxima, Gaussian) and
the scalar peak-finder and pooled-sigma oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.gaussian import (
    GaussianFit,
    fit_gaussian,
    overlap_threshold,
)
from repro.analysis.local_maxima import sum_of_local_maxima
from repro.analysis.traces import abs_difference, stack_traces

from oracles import (
    find_local_maxima,
    pooled_std,
    sum_of_local_maxima_serial,
)

# -- local maxima -------------------------------------------------------------


def test_find_local_maxima_simple_peaks():
    signal = [0, 1, 0, 2, 0, 3, 0]
    peaks = find_local_maxima(signal)
    assert list(peaks) == [1, 3, 5]


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


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=0, max_size=60),
       st.one_of(st.none(), st.floats(min_value=-10, max_value=50)),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_sum_of_local_maxima_is_the_serial_sum(values, min_height,
                                               min_distance):
    """The one-row view of the batch kernel equals the scalar oracle."""
    assert sum_of_local_maxima(values, min_height=min_height,
                               min_distance=min_distance) == \
        sum_of_local_maxima_serial(values, min_height=min_height,
                                   min_distance=min_distance)
    with pytest.raises(ValueError):
        sum_of_local_maxima(np.zeros((2, 3)))


# -- traces -------------------------------------------------------------------


def test_stack_traces():
    traces = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    matrix = stack_traces(traces)
    assert matrix.shape == (2, 2)
    with pytest.raises(ValueError):
        stack_traces([])
    with pytest.raises(ValueError):
        stack_traces([np.zeros(2), np.zeros(3)])


def test_abs_difference():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([0.0, 0.0, 0.0])
    assert np.array_equal(abs_difference(a, b), np.abs(a))
    with pytest.raises(ValueError):
        abs_difference(a, np.zeros(2))


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


def test_pooled_std_oracle():
    genuine = [10.0, 11.0, 9.0, 10.5]
    infected = [15.0, 16.0, 14.0, 15.5]
    assert pooled_std(genuine, infected) == pytest.approx(
        np.sqrt((np.var(genuine, ddof=1) + np.var(infected, ddof=1)) / 2))
    with pytest.raises(ValueError):
        pooled_std([1.0], [1.0, 2.0])


def test_overlap_threshold_is_midpoint():
    threshold = overlap_threshold(GaussianFit(0, 1), GaussianFit(10, 1))
    assert threshold == pytest.approx(5.0)
    assert overlap_threshold(GaussianFit(2, 0), GaussianFit(4, 0)) == 3.0
