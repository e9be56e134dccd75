"""Tests for the setup-violation fault model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.state import BLOCK_BITS, bytes_to_bits
from repro.measurement.clock import TimingBudget
from repro.measurement.fault_injection import SetupViolationFaultModel

from oracles import faulted_bits_population_serial


@pytest.fixture()
def model():
    return SetupViolationFaultModel(budget=TimingBudget())


def test_validation():
    with pytest.raises(ValueError):
        SetupViolationFaultModel(metastability_window_ps=-1)
    with pytest.raises(ValueError):
        SetupViolationFaultModel(stale_capture_probability=1.5)


def test_violation_probability_regimes(model):
    budget = model.budget
    arrival = 2000.0
    required = budget.required_period_ps(arrival)
    # Plenty of slack: no violation.
    assert model.violation_probability(arrival, required + 500) == 0.0
    # Deep violation: certain.
    assert model.violation_probability(arrival, required - 10) == 1.0
    # Inside the metastability window: between 0 and 1.
    inside = model.violation_probability(
        arrival, required + model.metastability_window_ps / 2
    )
    assert 0.0 < inside < 1.0
    # Stable bits can never be violated.
    assert model.violation_probability(None, 100.0) == 0.0


def test_violation_probability_monotone_in_period(model):
    arrival = 2000.0
    periods = np.linspace(2000, 3500, 30)
    probabilities = [model.violation_probability(arrival, p) for p in periods]
    assert all(a >= b - 1e-12 for a, b in zip(probabilities, probabilities[1:]))


def test_zero_window_is_a_clean_step_at_zero_slack(model):
    """A zero-width metastability window must keep slack == 0 a violation.

    The dataclass default used to leave the boundary on the no-violation
    side: with ``window == 0`` the old ``slack < window`` branch order
    returned 0.0 at exactly zero slack even though zero slack *is* a
    setup violation.
    """
    zero = SetupViolationFaultModel(metastability_window_ps=0.0)
    arrival = 2000.0
    required = zero.budget.required_period_ps(arrival)
    assert zero.violation_probability(arrival, required) == 1.0
    assert zero.violation_probability(arrival, required - 1e-9) == 1.0
    assert zero.violation_probability(arrival, required + 1e-9) == 0.0
    # The windowed model agrees at the boundary.
    assert model.violation_probability(arrival, required) == 1.0


def test_fault_model_budget_defaults_are_not_shared():
    """Mutable-default bugfix: each model owns its TimingBudget."""
    first = SetupViolationFaultModel()
    second = SetupViolationFaultModel()
    assert first.budget is not second.budget
    assert first.budget == second.budget == TimingBudget()


def test_violation_probabilities_match_scalar_grid(model):
    arrivals = np.array([1500.0, 2000.0, np.nan, 3000.0])
    periods = np.linspace(1500.0, 3600.0, 25)
    for fault_model in (model,
                        SetupViolationFaultModel(metastability_window_ps=0.0)):
        batched = fault_model.violation_probabilities(
            arrivals[None, :], periods[:, None])
        assert batched.shape == (periods.size, arrivals.size)
        for i, period in enumerate(periods):
            for j, arrival in enumerate(arrivals):
                scalar = fault_model.violation_probability(
                    None if np.isnan(arrival) else float(arrival),
                    float(period))
                assert batched[i, j] == scalar


def test_nan_arrival_is_a_stable_bit_on_the_scalar_path():
    """NaN, the timing engine's stable-bit marker, behaves like None on
    the scalar path exactly as on the vectorised one: probability 0,
    the correct bit captured, and no rng draw consumed."""
    for fault_model in (SetupViolationFaultModel(),
                        SetupViolationFaultModel(metastability_window_ps=0.0)):
        for period in (10.0, 5000.0, 1e6):
            scalar = fault_model.violation_probability(float("nan"), period)
            assert scalar == fault_model.violation_probability(None, period)
            assert scalar == fault_model.violation_probabilities(
                np.array([np.nan]), np.array([period]))[0] == 0.0
            for arrival in (None, float("nan")):
                rng = np.random.default_rng(0)
                assert fault_model.capture_bit(0, 1, arrival, period,
                                               rng) == 0
                assert rng.random() == np.random.default_rng(0).random()


def test_capture_bit_correct_when_no_violation(model, rng):
    assert model.capture_bit(1, 0, 1000.0, 1e6, rng) == 1
    assert model.capture_bit(0, 1, None, 10.0, rng) == 0


def test_capture_bit_wrong_when_deeply_violated(rng):
    model = SetupViolationFaultModel(stale_capture_probability=1.0)
    # Deep violation with stale-only resolution always returns the stale bit.
    for _ in range(20):
        assert model.capture_bit(1, 0, 5000.0, 100.0, rng) == 0


def test_faulted_ciphertext_safe_clock_returns_correct(model, rng):
    correct = bytes(range(16))
    stale = bytes(16)
    arrivals = [1000.0] * BLOCK_BITS
    observed = model.faulted_ciphertext(correct, stale, arrivals, 1e6, rng)
    assert observed == correct


def test_faulted_ciphertext_aggressive_clock_faults_toggling_bits(rng):
    model = SetupViolationFaultModel(stale_capture_probability=1.0)
    correct = bytes([0xFF] * 16)
    stale = bytes(16)
    arrivals = [3000.0] * BLOCK_BITS
    observed = model.faulted_ciphertext(correct, stale, arrivals, 500.0, rng)
    assert observed == stale


def test_faulted_ciphertext_requires_full_arrival_vector(model, rng):
    with pytest.raises(ValueError):
        model.faulted_ciphertext(bytes(16), bytes(16), [None] * 10, 1000.0, rng)


def test_faulted_bit_mask(model):
    correct = bytes([0xF0] + [0] * 15)
    observed = bytes([0x0F] + [0] * 15)
    mask = model.faulted_bit_mask(correct, observed)
    assert mask.shape == (BLOCK_BITS,)
    assert mask[:8].sum() == 8
    assert mask[8:].sum() == 0


def test_stable_bits_never_observed_faulted(model, rng):
    """Bits with no transition keep their (correct) value whatever the clock."""
    correct = bytes(16)
    stale = bytes(16)
    arrivals = [None] * BLOCK_BITS
    observed = model.faulted_ciphertext(correct, stale, arrivals, 1.0, rng)
    assert observed == correct


# -- population kernel properties ----------------------------------------------


def _population(seed, num_grid, num_stimuli):
    """Deterministic random correct/stale/arrival tensors for one draw."""
    data_rng = np.random.default_rng(seed)
    correct = data_rng.integers(0, 2, size=(num_stimuli, BLOCK_BITS),
                                dtype=np.uint8)
    stale = data_rng.integers(0, 2, size=(num_stimuli, BLOCK_BITS),
                              dtype=np.uint8)
    arrivals = data_rng.uniform(1000.0, 4000.0,
                                size=(num_stimuli, BLOCK_BITS))
    arrivals[data_rng.random((num_stimuli, BLOCK_BITS)) < 0.3] = np.nan
    periods = data_rng.uniform(1000.0, 4500.0, size=num_grid)
    return correct, stale, arrivals, periods[:, None]


@given(seed=st.integers(0, 2**32 - 1), num_grid=st.integers(1, 3),
       num_stimuli=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_population_kernel_matches_serial_reference(seed, num_grid,
                                                    num_stimuli):
    model = SetupViolationFaultModel()
    correct, stale, arrivals, periods = _population(seed, num_grid,
                                                    num_stimuli)
    batched = model.faulted_bits_population(
        correct, stale, arrivals, periods, np.random.default_rng(seed))
    serial = faulted_bits_population_serial(
        model, correct, stale, arrivals, periods, np.random.default_rng(seed))
    assert np.array_equal(batched, serial)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_population_kernel_is_seed_deterministic(seed):
    model = SetupViolationFaultModel()
    correct, stale, arrivals, periods = _population(seed, 2, 2)
    first = model.faulted_bits_population(
        correct, stale, arrivals, periods, np.random.default_rng(seed + 1))
    second = model.faulted_bits_population(
        correct, stale, arrivals, periods, np.random.default_rng(seed + 1))
    assert np.array_equal(first, second)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_stale_only_resolution_captures_correct_or_stale(seed):
    """With stale probability 1 every bit is either correct or stale.

    Corollary: the faulted-bit mask is a subset of the toggled bits
    (``correct != stale``), so fault differentials always point at real
    register transitions — the invariant the DFA analyzer rests on.
    """
    model = SetupViolationFaultModel(stale_capture_probability=1.0)
    correct, stale, arrivals, periods = _population(seed, 2, 2)
    captured = model.faulted_bits_population(
        correct, stale, arrivals, periods, np.random.default_rng(seed))
    is_correct = captured == correct[None]
    is_stale = captured == stale[None]
    assert np.all(is_correct | is_stale)
    faulted_mask = ~is_correct
    toggled = (correct != stale)[None]
    assert np.all(faulted_mask <= toggled)
    # NaN arrivals (no transition in the timing model) never fault.
    assert not np.any(faulted_mask & np.isnan(arrivals)[None])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_safe_clock_population_is_fault_free(seed):
    model = SetupViolationFaultModel()
    correct, stale, arrivals, _ = _population(seed, 1, 3)
    captured = model.faulted_bits_population(
        correct, stale, arrivals, np.array([[1e7]]),
        np.random.default_rng(seed))
    assert np.array_equal(captured, np.broadcast_to(correct, captured.shape))
