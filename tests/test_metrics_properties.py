"""Property-based tests for the detection metrics and the delay detector.

Hypothesis sweeps randomised traces/measurements through invariants the
paper's detection machinery must satisfy regardless of the data:

* the local-maxima-sum metric is non-negative and invariant under
  reordering of the trace population;
* it responds monotonically to the amplitude of an injected trojan
  emission;
* the delay detector's Eq. (4) differences are non-negative, a device
  identical to the golden fingerprint scores zero (and is accepted), and
  the device score grows monotonically with an injected delay shift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delay_detector import DelayDetector
from repro.core.em_detector import PopulationEMDetector
from repro.core.fingerprint import DelayFingerprint
from repro.core.metrics import LocalMaximaSumMetric
from repro.measurement.delay_meter import (
    DelayMeasurement,
    DelayMeasurementConfig,
    PairMeasurement,
    PlaintextKeyPair,
)

SETTINGS = settings(max_examples=50, deadline=None)


# -- strategies -----------------------------------------------------------------

def traces(min_length: int = 8, max_length: int = 64):
    """Finite float traces of moderate length."""
    return st.lists(
        st.floats(min_value=-1e4, max_value=1e4,
                  allow_nan=False, allow_infinity=False),
        min_size=min_length, max_size=max_length,
    ).map(lambda values: np.asarray(values, dtype=float))


def trace_populations(num_traces_max: int = 6):
    """A population of equal-length traces (>= 2 of them).

    Samples are integer-valued (like quantised oscilloscope output), so
    population means are exact and order-independent — the reordering
    properties below then hold exactly instead of only up to summation
    order.
    """
    return st.integers(min_value=8, max_value=48).flatmap(
        lambda length: st.lists(
            st.lists(
                st.integers(min_value=-20000, max_value=20000),
                min_size=length, max_size=length,
            ).map(lambda values: np.asarray(values, dtype=float)),
            min_size=2, max_size=num_traces_max,
        )
    )


# -- LocalMaximaSumMetric -------------------------------------------------------

@SETTINGS
@given(trace=traces(), reference=traces())
def test_metric_score_is_non_negative(trace, reference):
    length = min(trace.size, reference.size)
    metric = LocalMaximaSumMetric()
    (score,) = metric.scores_matrix(trace[None, :length], reference[:length])
    assert score >= 0.0


@SETTINGS
@given(population=trace_populations(), seed=st.integers(0, 2**32 - 1))
def test_metric_scores_equivariant_under_reordering(population, seed):
    """Reordering the trace population permutes the scores with it."""
    metric = LocalMaximaSumMetric()
    reference = population[0]
    scores = metric.scores_matrix(np.vstack(population), reference)
    permutation = np.random.default_rng(seed).permutation(len(population))
    permuted_scores = metric.scores_matrix(
        np.vstack([population[i] for i in permutation]), reference)
    np.testing.assert_array_equal(permuted_scores, scores[permutation])


@SETTINGS
@given(population=trace_populations(), seed=st.integers(0, 2**32 - 1))
def test_population_characterisation_invariant_under_reordering(population,
                                                                seed):
    """Fitting the detector on a reordered golden population is a no-op.

    The mean reference and the Gaussian fit are symmetric in the traces;
    only floating-point summation order may differ, hence the tolerance.
    """
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(len(population))
    reordered = [population[i] for i in permutation]
    reference_a, characterisations_a = PopulationEMDetector(
        ).fit_and_characterise(population, {"HT": population})
    reference_b, characterisations_b = PopulationEMDetector(
        ).fit_and_characterise(reordered, {"HT": reordered})
    np.testing.assert_allclose(reference_b.mean, reference_a.mean,
                               rtol=1e-9, atol=1e-6)
    fit_a = characterisations_a["HT"].genuine
    fit_b = characterisations_b["HT"].genuine
    np.testing.assert_allclose([fit_b.mean, fit_b.std],
                               [fit_a.mean, fit_a.std],
                               rtol=1e-9, atol=1e-6)


@SETTINGS
@given(
    reference=traces(min_length=16),
    amplitudes=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                  allow_nan=False), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_metric_monotone_in_injected_trojan_amplitude(reference, amplitudes,
                                                      seed):
    """A larger dormant emission can only raise the metric score."""
    metric = LocalMaximaSumMetric()
    rng = np.random.default_rng(seed)
    bump = np.abs(rng.normal(0.0, 1.0, size=reference.size))
    scores = metric.scores_matrix(
        np.vstack([reference + amplitude * bump
                   for amplitude in sorted(amplitudes)]), reference)
    for smaller, larger in zip(scores, scores[1:]):
        assert larger >= smaller - 1e-9


# -- DelayDetector --------------------------------------------------------------

NUM_BITS = 16


def _measurement(mean_steps: np.ndarray, label: str = "DUT",
                 repetitions: int = 4) -> DelayMeasurement:
    """A synthetic campaign whose per-repetition steps equal the mean."""
    config = DelayMeasurementConfig(repetitions=repetitions)
    pairs = []
    for pair_index, row in enumerate(mean_steps):
        pair = PlaintextKeyPair(index=pair_index, plaintext=bytes(16),
                                key=bytes(16))
        steps = np.tile(row, (repetitions, 1)).astype(float)
        pairs.append(PairMeasurement(pair=pair, steps_to_fault=steps,
                                     arrival_ps=np.full(row.size, 1000.0)))
    return DelayMeasurement(label=label, glitch=None, config=config,
                            pairs=pairs)


def steps_matrices():
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda num_pairs: st.lists(
            st.lists(st.integers(min_value=0, max_value=50),
                     min_size=NUM_BITS, max_size=NUM_BITS),
            min_size=num_pairs, max_size=num_pairs,
        ).map(lambda rows: np.asarray(rows, dtype=float))
    )


@SETTINGS
@given(mean_steps=steps_matrices())
def test_delay_differences_non_negative(mean_steps):
    fingerprint = DelayFingerprint(
        mean_steps=mean_steps,
        repetition_std_steps=np.full(mean_steps.shape, 0.5),
        glitch_step_ps=35.0,
        num_repetitions=4,
    )
    detector = DelayDetector(fingerprint)
    shifted = _measurement(mean_steps + 1.0)
    assert (detector.difference_ps(shifted) >= 0.0).all()


@SETTINGS
@given(mean_steps=steps_matrices())
def test_identical_device_scores_zero_and_is_accepted(mean_steps):
    fingerprint = DelayFingerprint(
        mean_steps=mean_steps,
        repetition_std_steps=np.full(mean_steps.shape, 0.5),
        glitch_step_ps=35.0,
        num_repetitions=4,
    )
    detector = DelayDetector(fingerprint)
    comparison = detector.compare(_measurement(mean_steps.copy()))
    assert comparison.max_difference_ps == 0.0
    assert not comparison.outcome.is_infected


@SETTINGS
@given(
    mean_steps=steps_matrices(),
    shifts=st.lists(st.floats(min_value=0.0, max_value=30.0,
                              allow_nan=False), min_size=2, max_size=5),
    bit=st.integers(min_value=0, max_value=NUM_BITS - 1),
)
def test_delay_score_monotone_in_injected_shift(mean_steps, shifts, bit):
    """Loading one net with ever more delay can only raise the score."""
    fingerprint = DelayFingerprint(
        mean_steps=mean_steps,
        repetition_std_steps=np.full(mean_steps.shape, 0.5),
        glitch_step_ps=35.0,
        num_repetitions=4,
    )
    detector = DelayDetector(fingerprint)
    scores = []
    for shift in sorted(shifts):
        shifted = mean_steps.copy()
        shifted[:, bit] += shift
        scores.append(detector.compare(_measurement(shifted)).max_difference_ps)
    for smaller, larger in zip(scores, scores[1:]):
        assert larger >= smaller - 1e-9
