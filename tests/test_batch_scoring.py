"""The batched scoring kernel against its scalar serial references.

Every function in :mod:`repro.analysis.batch` (and every scorer lifted
onto it) carries the serial-reference contract: the batched output must
be **bit-identical** to looping the scalar reference over the rows —
including the quicksort tie order of equal-height peaks during
min-distance suppression.  These tests pin that contract with hypothesis
property tests (random signals, plateaus, min_height/min_distance
grids) and with detector-level equivalence checks on simulated
populations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.batch import (
    abs_difference_matrix,
    false_negative_rates,
    find_local_maxima_batch,
    fit_gaussians_batch,
    pooled_std_batch,
    sum_of_local_maxima_batch,
)
from repro.analysis.gaussian import fit_gaussian
from repro.analysis.traces import abs_difference, stack_traces
from repro.core.em_detector import PopulationEMDetector
from repro.core.fingerprint import EMReference
from repro.core.metrics import (
    L1TraceMetric,
    LocalMaximaSumMetric,
    MaxDifferenceMetric,
    false_negative_rate,
)

from oracles import (
    acquire_population_traces,
    find_local_maxima,
    pooled_std,
    scores_serial,
    sum_of_local_maxima_serial,
)

# -- hypothesis strategies ----------------------------------------------------

#: Signal values that exercise plateaus and exact ties (integer-valued
#: floats collide often) alongside generic floats.
_VALUE_STRATEGIES = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    st.integers(min_value=0, max_value=6).map(float),
)

#: 1-5 rows of one shared length (0-48): the length is drawn once, so
#: no draw is rejected for ragged rows.
_MATRIX_STRATEGY = st.integers(min_value=0, max_value=48).flatmap(
    lambda length: st.lists(
        st.lists(_VALUE_STRATEGIES, min_size=length, max_size=length),
        min_size=1, max_size=5))


@given(rows=_MATRIX_STRATEGY,
       min_distance=st.integers(min_value=1, max_value=12),
       min_height=st.one_of(st.none(),
                            st.floats(min_value=-5, max_value=5,
                                      allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_find_local_maxima_batch_pins_scalar_reference(rows, min_distance,
                                                       min_height):
    """Property: every row's mask equals the scalar reference indices."""
    matrix = np.asarray(rows, dtype=float)
    mask = find_local_maxima_batch(matrix, min_height=min_height,
                                   min_distance=min_distance)
    assert mask.shape == matrix.shape
    sums = sum_of_local_maxima_batch(matrix, min_height=min_height,
                                     min_distance=min_distance)
    for index, row in enumerate(matrix):
        expected = find_local_maxima(row, min_height=min_height,
                                     min_distance=min_distance)
        assert np.array_equal(np.flatnonzero(mask[index]), expected)
        expected_sum = sum_of_local_maxima_serial(
            row, min_height=min_height, min_distance=min_distance)
        assert sums[index] == expected_sum  # bit-identical, not approx


@given(rows=st.integers(min_value=1, max_value=4),
       samples=st.integers(min_value=3, max_value=64),
       min_distance=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_find_local_maxima_batch_on_oscillating_signals(rows, samples,
                                                        min_distance, seed):
    """Property: dense ringing-like signals (many close peaks) match too."""
    rng = np.random.default_rng(seed)
    base = np.sin(np.linspace(0, samples / 2.0, samples))
    matrix = base[None, :] * rng.uniform(0.5, 2.0, size=(rows, 1)) \
        + rng.normal(0, 0.3, size=(rows, samples))
    mask = find_local_maxima_batch(matrix, min_distance=min_distance)
    for index, row in enumerate(matrix):
        expected = find_local_maxima(row, min_distance=min_distance)
        assert np.array_equal(np.flatnonzero(mask[index]), expected)


def test_find_local_maxima_batch_validation():
    with pytest.raises(ValueError):
        find_local_maxima_batch(np.zeros(4))
    with pytest.raises(ValueError):
        find_local_maxima_batch(np.zeros((2, 5)), min_distance=0)


def test_find_local_maxima_batch_degenerate_shapes():
    assert not find_local_maxima_batch(np.zeros((0, 7))).any()
    assert not find_local_maxima_batch(np.zeros((3, 2))).any()
    assert not find_local_maxima_batch(np.zeros((3, 40)),
                                       min_distance=5).any()


def test_abs_difference_matrix_matches_scalar():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(5, 32))
    reference = rng.normal(size=32)
    batched = abs_difference_matrix(matrix, reference)
    for index, row in enumerate(matrix):
        assert np.array_equal(batched[index], abs_difference(row, reference))
    with pytest.raises(ValueError):
        abs_difference_matrix(matrix, np.zeros(5))
    with pytest.raises(ValueError):
        abs_difference_matrix(np.zeros(4), np.zeros(4))


@given(matrix=st.lists(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=12),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(row) for row in rows}) == 1))
@settings(max_examples=100, deadline=None)
def test_fit_gaussians_batch_pins_scalar_reference(matrix):
    scores = np.asarray(matrix, dtype=float)
    means, stds = fit_gaussians_batch(scores)
    for index, row in enumerate(scores):
        fit = fit_gaussian(row)
        assert means[index] == fit.mean
        assert stds[index] == fit.std


@given(reference=st.lists(st.floats(min_value=-1e4, max_value=1e4,
                                    allow_nan=False),
                          min_size=2, max_size=10),
       matrix=st.lists(
           st.lists(st.floats(min_value=-1e4, max_value=1e4,
                              allow_nan=False), min_size=2, max_size=10),
           min_size=1, max_size=4,
       ).filter(lambda rows: len({len(row) for row in rows}) == 1))
@settings(max_examples=100, deadline=None)
def test_pooled_std_batch_pins_scalar_reference(reference, matrix):
    scores = np.asarray(matrix, dtype=float)
    batched = pooled_std_batch(reference, scores)
    for index, row in enumerate(scores):
        assert batched[index] == pooled_std(reference, row)


def test_pooled_std_batch_validation():
    with pytest.raises(ValueError):
        pooled_std_batch([1.0], np.ones((2, 3)))
    with pytest.raises(ValueError):
        pooled_std_batch([1.0, 2.0], np.ones((2, 1)))


@given(mus=st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=1, max_size=6),
       sigmas=st.lists(st.floats(min_value=0, max_value=50,
                                 allow_nan=False), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_false_negative_rates_pin_scalar_reference(mus, sigmas):
    length = min(len(mus), len(sigmas))
    mu = np.asarray(mus[:length])
    sigma = np.asarray(sigmas[:length])
    rates = false_negative_rates(mu, sigma)
    for index in range(length):
        mu_value, sigma_value = float(mu[index]), float(sigma[index])
        assert rates[index] == false_negative_rate(mu_value, sigma_value)
        if sigma_value > 0:
            # Eq. (5) in closed form, evaluated with plain floats.
            assert rates[index] == 0.5 - 0.5 * math.erf(
                mu_value / (2.0 * sigma_value * math.sqrt(2.0)))


def test_false_negative_rates_validation_and_degenerate():
    with pytest.raises(ValueError):
        false_negative_rates([1.0], [-1.0])
    rates = false_negative_rates([1.0, -1.0, 0.0], [0.0, 0.0, 0.0])
    assert list(rates) == [0.0, 1.0, 0.5]


# -- trace stacking pass-through ----------------------------------------------


def test_stack_traces_passes_prestacked_matrix_through():
    matrix = np.arange(12.0).reshape(3, 4)
    assert stack_traces(matrix) is matrix  # no copy, no re-validation
    with pytest.raises(ValueError):
        stack_traces(np.zeros((0, 4)))


def test_em_reference_from_traces_accepts_prestacked_matrix():
    rng = np.random.default_rng(11)
    traces = [rng.normal(size=16) for _ in range(4)]
    from_traces = EMReference.from_traces(traces)
    from_matrix = EMReference.from_traces(np.vstack(traces))
    assert np.array_equal(from_traces.mean, from_matrix.mean)
    assert np.array_equal(from_traces.per_sample_std,
                          from_matrix.per_sample_std)
    assert from_traces.num_traces == from_matrix.num_traces


# -- metric / detector level ---------------------------------------------------

METRICS = [LocalMaximaSumMetric(), LocalMaximaSumMetric(min_peak_distance=1),
           LocalMaximaSumMetric(min_peak_distance=9, min_peak_height=1.0),
           L1TraceMetric(), MaxDifferenceMetric()]


@pytest.fixture(scope="module")
def small_population(platform):
    return acquire_population_traces(platform, ("HT1", "HT3"))


@pytest.mark.parametrize("metric", METRICS,
                         ids=lambda metric: type(metric).__name__ + "-"
                         + str(getattr(metric, "min_peak_distance", "")))
def test_metric_scores_equal_serial_loop(small_population, metric):
    golden, infected = small_population
    population = list(golden) + list(infected["HT1"]) + list(infected["HT3"])
    reference = stack_traces(golden).mean(axis=0)
    serial = scores_serial(metric, population, reference)
    matrix_scores = metric.scores_matrix(stack_traces(population), reference)
    assert np.array_equal(serial, matrix_scores)


@pytest.mark.parametrize("metric", METRICS,
                         ids=lambda metric: type(metric).__name__ + "-"
                         + str(getattr(metric, "min_peak_distance", "")))
def test_population_detector_equals_serial_chain(small_population, metric):
    """``fit_and_characterise`` against the per-trace score, scalar
    Gaussian fits, pooled sigma and Eq. (5), trojan by trojan."""
    golden, infected = small_population
    reference, characterisations = PopulationEMDetector(
        metric).fit_and_characterise(golden, infected)
    assert np.array_equal(reference.mean, stack_traces(golden).mean(axis=0))

    serial_golden = scores_serial(metric, golden, reference.mean)
    genuine_fit = fit_gaussian(serial_golden)
    assert list(characterisations) == list(infected)
    for name, population in infected.items():
        serial_scores = scores_serial(metric, population, reference.mean)
        infected_fit = fit_gaussian(serial_scores)
        mu = infected_fit.mean - genuine_fit.mean
        sigma = pooled_std(serial_golden, serial_scores)
        char = characterisations[name]
        assert char.genuine == genuine_fit
        assert char.infected == infected_fit
        assert char.mu == float(mu)
        assert char.sigma == float(sigma)
        assert char.false_negative_rate == false_negative_rate(mu, sigma)


def test_population_detector_accepts_prestacked_matrices(small_population):
    golden, infected = small_population
    detector = PopulationEMDetector()
    _, from_traces = detector.fit_and_characterise(golden, infected)
    _, from_matrices = detector.fit_and_characterise(
        stack_traces(golden),
        {name: stack_traces(population)
         for name, population in infected.items()})
    assert from_traces == from_matrices
    with pytest.raises(ValueError):
        detector.fit_and_characterise(golden, {"HT1": np.zeros((0, 4))})
    with pytest.raises(ValueError):
        detector.fit_and_characterise(stack_traces(golden)[:1], infected)


class _SquaredDifferenceMetric:
    """A metric outside :mod:`repro.core.metrics`: only ``scores_matrix``."""

    def scores_matrix(self, matrix, reference):
        return ((matrix - np.asarray(reference)) ** 2).sum(axis=1)


def test_custom_metric_with_only_scores_matrix_drives_the_detector(
        small_population):
    golden, infected = small_population
    metric = _SquaredDifferenceMetric()
    reference, characterisations = PopulationEMDetector(
        metric).fit_and_characterise(golden, infected)
    golden_scores = metric.scores_matrix(stack_traces(golden), reference.mean)
    for name, population in infected.items():
        scores = metric.scores_matrix(stack_traces(population),
                                      reference.mean)
        char = characterisations[name]
        assert char.genuine == fit_gaussian(golden_scores)
        assert char.infected == fit_gaussian(scores)
        assert char.sigma == pooled_std(golden_scores, scores)


def test_stack_traces_rejects_non_vector_traces():
    """A single sample vector is not a population of traces: it would
    otherwise stack as one-sample traces and fit a one-sample reference."""
    with pytest.raises(ValueError):
        stack_traces(np.arange(5.0))
    with pytest.raises(ValueError):
        stack_traces([np.zeros((2, 3)), np.zeros((2, 3))])
    with pytest.raises(ValueError):
        EMReference.from_traces(np.arange(5.0))
