"""Tests for the clock-glitch generator, timing budget and noise models."""

import numpy as np
import pytest

from repro.measurement.clock import ClockGlitchGenerator, TimingBudget
from repro.measurement.noise import DelayNoiseModel, EMNoiseModel

from oracles import sample_setup_perturbation


def test_timing_budget_equation_one():
    budget = TimingBudget(clk2q_ps=400, setup_ps=180, hold_ps=100,
                          skew_ps=50, jitter_ps=25)
    required = budget.required_period_ps(1000.0)
    assert required == pytest.approx(400 + 1000 + 180 - 50 + 25)
    assert budget.setup_slack_ps(required + 1, 1000.0) == pytest.approx(1.0)
    assert budget.violates_setup(required - 1, 1000.0)
    assert not budget.violates_setup(required + 1, 1000.0)


def test_timing_budget_validation():
    with pytest.raises(ValueError):
        TimingBudget(clk2q_ps=-1)


def test_glitch_generator_periods():
    glitch = ClockGlitchGenerator(start_period_ps=4000, step_ps=35, num_steps=51)
    periods = glitch.periods()
    assert len(periods) == 52
    assert periods[0] == 4000
    assert periods[1] == pytest.approx(3965)
    assert periods[-1] == pytest.approx(4000 - 51 * 35)
    assert list(glitch) == periods
    with pytest.raises(ValueError):
        glitch.period_at_step(52)


def test_glitch_generator_validation():
    with pytest.raises(ValueError):
        ClockGlitchGenerator(start_period_ps=0)
    with pytest.raises(ValueError):
        ClockGlitchGenerator(start_period_ps=100, step_ps=35, num_steps=51)
    with pytest.raises(ValueError):
        ClockGlitchGenerator(start_period_ps=4000, step_ps=0)


def test_calibrated_glitch_covers_worst_path():
    budget = TimingBudget()
    glitch = ClockGlitchGenerator.calibrated(worst_path_ps=3000, budget=budget,
                                             margin_steps=5)
    required = budget.required_period_ps(3000)
    assert glitch.start_period_ps == pytest.approx(required + 5 * glitch.step_ps)
    # The worst path violates within the sweep but not at step 0.
    violating = [step for step, period in enumerate(glitch.periods())
                 if period < required]
    assert violating and 0 < violating[0] <= glitch.num_steps


def test_delay_noise_model(rng):
    model = DelayNoiseModel(sigma_ps=10.0)
    samples = model.sample(rng, (5, 4))
    assert samples.shape == (5, 4)
    silent = DelayNoiseModel(sigma_ps=0.0).sample(rng, 8)
    assert np.all(silent == 0)
    with pytest.raises(ValueError):
        DelayNoiseModel(sigma_ps=-1)


def test_em_noise_model_averaging(rng):
    model = EMNoiseModel(sigma_single_shot=1000.0)
    # 1000 / sqrt(100): the residual after 100-fold averaging.
    gains, offsets, noise = model.sample_acquisitions(
        rng, 4, 500, 100.0, new_setup_installation=True)
    assert noise.shape == (4, 500)
    assert 50 < noise.std() < 200
    assert np.all((0.9 < gains) & (gains < 1.1))
    assert np.all(np.abs(offsets) < 200)
    gain, offset = sample_setup_perturbation(model, rng)
    assert 0.9 < gain < 1.1
    assert abs(offset) < 200


@pytest.mark.parametrize("gain_sigma,offset_sigma,noise_sigma,new_setup", [
    (0.003, 10.0, 25.0, True), (0.0, 10.0, 25.0, True),
    (0.003, 0.0, 25.0, True), (0.0, 0.0, 25.0, True),
    (0.003, 10.0, 0.0, True), (0.003, 10.0, 25.0, False),
])
def test_em_noise_block_matches_trace_by_trace_draws(gain_sigma, offset_sigma,
                                                     noise_sigma, new_setup):
    """The block draw reproduces the per-trace setup draw and
    ``rng.normal`` noise bit for bit, and leaves the generator where the
    trace-by-trace loop leaves it."""
    model = EMNoiseModel(setup_gain_sigma=gain_sigma,
                         setup_offset_sigma=offset_sigma)
    block_rng, serial_rng = np.random.default_rng(3), np.random.default_rng(3)
    gains, offsets, noise = model.sample_acquisitions(
        block_rng, 5, 64, noise_sigma, new_setup)
    for row in range(5):
        if new_setup:
            gain, offset = sample_setup_perturbation(model, serial_rng)
            assert (gains[row], offsets[row]) == (gain, offset)
        if noise_sigma > 0:
            expected = serial_rng.normal(0.0, noise_sigma, size=64)
            assert noise[row].tobytes() == expected.tobytes()
    assert (gains is None) == (not new_setup)
    assert (noise is None) == (noise_sigma == 0)
    assert block_rng.random() == serial_rng.random()


def test_em_noise_model_validation():
    with pytest.raises(ValueError):
        EMNoiseModel(sigma_single_shot=-1)
    with pytest.raises(ValueError):
        EMNoiseModel(setup_gain_sigma=-0.1)
