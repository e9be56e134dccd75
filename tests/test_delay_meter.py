"""Tests for the clock-glitch delay meter."""

import numpy as np
import pytest

from repro.measurement.delay_meter import (
    DelayMeasurementConfig,
    PathDelayMeter,
    PlaintextKeyPair,
    generate_pk_pairs,
)
from repro.measurement.dut import DeviceUnderTest
from repro.measurement.noise import DelayNoiseModel

from oracles import measure_pair


@pytest.fixture(scope="module")
def meter():
    return PathDelayMeter(DelayMeasurementConfig(repetitions=3, seed=0))


@pytest.fixture(scope="module")
def clean_dut(golden_design):
    return DeviceUnderTest(golden_design, die=None, label="clean")


@pytest.fixture(scope="module")
def infected_dut(infected_design):
    return DeviceUnderTest(infected_design, die=None, label="HT_comb")


def test_generate_pk_pairs_reproducible():
    a = generate_pk_pairs(5, seed=3)
    b = generate_pk_pairs(5, seed=3)
    assert a == b
    assert len({pair.plaintext for pair in a}) == 5
    with pytest.raises(ValueError):
        generate_pk_pairs(0)


def test_generate_pk_pairs_fixed_key():
    key = bytes(range(16))
    pairs = generate_pk_pairs(4, seed=1, fixed_key=key)
    assert all(pair.key == key for pair in pairs)


def test_pk_pair_validation():
    with pytest.raises(ValueError):
        PlaintextKeyPair(0, bytes(10), bytes(16))
    with pytest.raises(ValueError):
        PlaintextKeyPair(0, bytes(16), bytes(10))


def test_config_validation():
    with pytest.raises(ValueError):
        DelayMeasurementConfig(repetitions=0)
    with pytest.raises(ValueError):
        DelayMeasurementConfig(glitch_step_ps=0)


def test_arrival_times_shape_and_data_dependence(meter, clean_dut, pk_pairs):
    arrivals_a = meter.arrival_times_ps(clean_dut, pk_pairs[0])
    arrivals_b = meter.arrival_times_ps(clean_dut, pk_pairs[1])
    assert arrivals_a.shape == (128,)
    finite = arrivals_a[~np.isnan(arrivals_a)]
    assert finite.size > 32
    assert finite.min() > 0
    # Different (P, K) pairs sensitise different paths.
    assert not np.array_equal(np.isnan(arrivals_a), np.isnan(arrivals_b)) or \
        not np.allclose(arrivals_a[~np.isnan(arrivals_a)],
                        arrivals_b[~np.isnan(arrivals_b)])


def test_calibrated_glitch_covers_observed_paths(meter, clean_dut, pk_pairs):
    glitch = meter.calibrate_glitch(clean_dut, pk_pairs)
    arrivals = meter.arrival_times_ps(clean_dut, pk_pairs[0])
    worst = np.nanmax(arrivals)
    assert glitch.start_period_ps > meter.config.budget.required_period_ps(worst)
    with pytest.raises(ValueError):
        meter.calibrate_glitch(clean_dut, [])


def test_measure_pair_output_shape(meter, clean_dut, pk_pairs, rng):
    glitch = meter.calibrate_glitch(clean_dut, pk_pairs)
    result = measure_pair(meter, clean_dut, pk_pairs[0], glitch, rng)
    assert result.steps_to_fault.shape == (3, 128)
    never = glitch.num_steps + 1
    assert np.all(result.steps_to_fault <= never)
    # Bits that never toggle are never faulted.
    stable = np.isnan(result.arrival_ps)
    assert np.all(result.steps_to_fault[:, stable] == never)
    assert set(result.observable_bits()) == set(np.flatnonzero(~stable))


def test_longer_paths_fault_earlier(meter, clean_dut, pk_pairs, rng):
    glitch = meter.calibrate_glitch(clean_dut, pk_pairs)
    result = measure_pair(meter, clean_dut, pk_pairs[0], glitch, rng)
    arrivals = result.arrival_ps
    steps = result.mean_steps()
    observable = ~np.isnan(arrivals)
    longest = int(np.nanargmax(arrivals))
    shortest_candidates = np.where(observable, arrivals, np.inf)
    shortest = int(np.argmin(shortest_candidates))
    assert steps[longest] <= steps[shortest]


def test_measure_full_campaign(meter, clean_dut, pk_pairs):
    measurement = meter.measure(clean_dut, pk_pairs, seed=5)
    assert measurement.num_pairs == len(pk_pairs)
    assert measurement.steps_matrix().shape == (len(pk_pairs), 3, 128)
    assert measurement.mean_delay_ps().shape == (len(pk_pairs), 128)
    assert np.all(measurement.repetition_std_ps() >= 0)
    with pytest.raises(ValueError):
        meter.measure(clean_dut, [])


def test_measurement_reproducible_with_same_seed(meter, clean_dut, pk_pairs):
    glitch = meter.calibrate_glitch(clean_dut, pk_pairs)
    a = meter.measure(clean_dut, pk_pairs, glitch, seed=9)
    b = meter.measure(clean_dut, pk_pairs, glitch, seed=9)
    assert np.array_equal(a.steps_matrix(), b.steps_matrix())


def test_calibrate_glitches_per_pair(meter, clean_dut, pk_pairs):
    glitches = meter.calibrate_glitches(clean_dut, pk_pairs)
    assert set(glitches) == {pair.index for pair in pk_pairs}
    for pair in pk_pairs:
        worst = np.nanmax(meter.arrival_times_ps(clean_dut, pair))
        required = meter.config.budget.required_period_ps(worst)
        sweep = glitches[pair.index]
        assert sweep.start_period_ps > required
        assert sweep.periods()[-1] < required


def test_infected_dut_shifts_steps(meter, clean_dut, infected_dut, pk_pairs):
    glitches = meter.calibrate_glitches(clean_dut, pk_pairs)
    clean = meter.measure(clean_dut, pk_pairs, glitches, seed=3)
    infected = meter.measure(infected_dut, pk_pairs, glitches, seed=3)
    difference = np.abs(clean.mean_delay_ps() - infected.mean_delay_ps())
    assert difference.max() > 2 * meter.config.glitch_step_ps


def test_fault_staircase_monotone_trend(meter, clean_dut, pk_pairs):
    glitch = meter.calibrate_glitch(clean_dut, [pk_pairs[0]])
    staircase = meter.fault_staircase(clean_dut, pk_pairs[0], glitch, seed=1)
    assert set(staircase) == set(range(glitch.num_steps + 1))
    counts = [staircase[step] for step in sorted(staircase)]
    assert counts[0] <= counts[-1]
    assert max(counts) > 0
    assert max(counts) <= 128
