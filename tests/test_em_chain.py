"""Tests for the EM probe, oscilloscope and trace simulator."""

import numpy as np
import pytest

from repro.measurement.dut import DeviceUnderTest
from repro.measurement.em_probe import Amplifier, EMProbe, probe_impulse_response
from repro.measurement.em_simulator import EMAcquisitionConfig, EMSimulator
from repro.measurement.oscilloscope import Oscilloscope

from oracles import (AES, amplify, host_cycle_activities, noiseless_trace,
                     trojan_cycle_activities)

PLAINTEXT = bytes(range(16))
KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


@pytest.fixture(scope="module")
def simulator():
    return EMSimulator()


@pytest.fixture(scope="module")
def golden_dut(golden_design, die_population):
    return DeviceUnderTest(golden_design, die_population[0], label="golden")


@pytest.fixture(scope="module")
def infected_dut(infected_design, die_population):
    return DeviceUnderTest(infected_design, die_population[0], label="infected")


def test_probe_coupling_decays_with_distance():
    probe = EMProbe(position=(0.0, 0.0), coupling_decay_slices=10.0)
    assert probe.coupling((0.0, 0.0)) == pytest.approx(1.0)
    assert probe.coupling((10.0, 0.0)) == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        EMProbe(coupling_decay_slices=0.0)


def test_amplifier_gain():
    amp = Amplifier(gain_db=30.0)
    assert amp.linear_gain == pytest.approx(10 ** 1.5)
    assert amplify(amp, np.ones(3))[0] == pytest.approx(amp.linear_gain)
    with pytest.raises(ValueError):
        Amplifier(gain_db=-3)


def test_impulse_response_is_damped_and_normalised():
    kernel = probe_impulse_response(5.0, ringing_frequency_mhz=200, decay_ns=4)
    assert np.max(np.abs(kernel)) == pytest.approx(1.0)
    assert np.abs(kernel[-1]) < 0.1
    with pytest.raises(ValueError):
        probe_impulse_response(0.0)


def test_oscilloscope_sampling_and_quantisation():
    scope = Oscilloscope()
    assert scope.samples_for_duration_ns(10.0) == 50
    assert scope.effective_noise_sigma(800.0) == pytest.approx(800.0 / np.sqrt(1000))
    quantised = scope.quantise(np.array([0.0, 100.3, -1e9]))
    assert quantised[2] == -scope.full_scale / 2
    assert scope.effective_lsb() < scope.lsb
    with pytest.raises(ValueError):
        Oscilloscope(sample_rate_gsps=0)
    with pytest.raises(ValueError):
        scope.quantise(np.zeros(3), lsb=0.0)


def test_quantise_leaves_its_input_and_matches_the_in_place_pass():
    scope = Oscilloscope()
    signal = np.array([-0.0, 0.4, -7.6, 1e9, -1e9, 123.456])
    before = signal.tobytes()
    quantised = scope.quantise(signal, lsb=scope.effective_lsb())
    assert signal.tobytes() == before
    expected = (np.round(np.clip(signal, -scope.full_scale / 2,
                                 scope.full_scale / 2 - scope.effective_lsb())
                         / scope.effective_lsb()) * scope.effective_lsb())
    assert quantised.tobytes() == expected.tobytes()
    in_place = signal.copy()
    assert scope.quantise_in_place(in_place,
                                   lsb=scope.effective_lsb()) is in_place
    assert in_place.tobytes() == expected.tobytes()


def test_acquisition_config_geometry():
    config = EMAcquisitionConfig()
    assert config.clock_period_ns == pytest.approx(1000.0 / 24.0)
    assert config.samples_per_cycle == pytest.approx(208, abs=1)
    assert config.total_cycles(10) == 14
    with pytest.raises(ValueError):
        EMAcquisitionConfig(clock_frequency_mhz=0)
    with pytest.raises(ValueError):
        EMAcquisitionConfig(trojan_pin_toggle_weight=-1)


def test_host_activities_track_register_switching(simulator, golden_dut):
    activities = host_cycle_activities(simulator, AES(KEY), PLAINTEXT)
    assert len(activities) == 11
    assert all(a >= simulator.config.baseline_activity for a in activities)


def test_trojan_activities_zero_for_clean_design(simulator, golden_dut):
    activities = trojan_cycle_activities(simulator, golden_dut, AES(KEY), PLAINTEXT)
    assert activities == [0.0] * 11


def test_trojan_activities_positive_for_infected(simulator, infected_dut):
    activities = trojan_cycle_activities(simulator, infected_dut, AES(KEY), PLAINTEXT)
    assert len(activities) == 11
    assert all(a > 0 for a in activities)


def test_noiseless_trace_structure(simulator, golden_dut):
    trace = noiseless_trace(simulator, golden_dut, PLAINTEXT, KEY)
    expected_samples = simulator.config.total_samples(10)
    assert len(trace) == expected_samples
    assert len(trace.cycle_sample_offsets) == 11
    assert np.abs(trace.samples).max() > 1000


def test_noiseless_trace_deterministic(simulator, golden_dut):
    a = noiseless_trace(simulator, golden_dut, PLAINTEXT, KEY)
    b = noiseless_trace(simulator, golden_dut, PLAINTEXT, KEY)
    assert np.array_equal(a.samples, b.samples)


def test_noiseless_trace_depends_on_plaintext(simulator, golden_dut):
    a = noiseless_trace(simulator, golden_dut, PLAINTEXT, KEY)
    b = noiseless_trace(simulator, golden_dut, bytes(16), KEY)
    assert not np.array_equal(a.samples, b.samples)


def test_infected_trace_differs_from_golden(simulator, golden_dut, infected_dut):
    golden = noiseless_trace(simulator, golden_dut, PLAINTEXT, KEY)
    infected = noiseless_trace(simulator, infected_dut, PLAINTEXT, KEY)
    difference = np.abs(golden.samples - infected.samples)
    assert difference.max() > 50
    # The trojan adds activity; it must not change the trace length.
    assert len(golden) == len(infected)


def test_trojan_size_increases_em_difference(simulator, golden_design,
                                             die_population):
    from repro.trojan.insertion import insert_trojan
    from repro.trojan.library import build_trojan

    die = die_population[0]
    golden_dut = DeviceUnderTest(golden_design, die)
    golden = noiseless_trace(simulator, golden_dut, PLAINTEXT, KEY)
    differences = {}
    for name in ("HT1", "HT3"):
        infected = insert_trojan(golden_design, build_trojan(name,
                                                             golden_design.device))
        dut = DeviceUnderTest(infected, die)
        trace = noiseless_trace(simulator, dut, PLAINTEXT, KEY)
        differences[name] = float(np.abs(trace.samples - golden.samples).max())
    assert differences["HT3"] > differences["HT1"]


def test_acquire_adds_bounded_noise(simulator, golden_dut, rng):
    noiseless = noiseless_trace(simulator, golden_dut, PLAINTEXT, KEY)
    acquired = simulator.acquire(golden_dut, PLAINTEXT, KEY, rng)
    residual = acquired.samples - noiseless.samples
    sigma = simulator.config.oscilloscope.effective_noise_sigma(
        simulator.config.noise.sigma_single_shot
    )
    assert residual.std() < 5 * sigma + simulator.config.oscilloscope.effective_lsb()


def test_acquire_many_counts(simulator, golden_dut, rng):
    traces, offsets = simulator.acquire_many_batch_tensor(
        [golden_dut], [PLAINTEXT, bytes(16)], KEY, rng)
    assert traces.shape == (1, simulator.config.total_samples(10))
    assert len(offsets) == 11


def test_setup_installation_perturbs_trace(simulator, golden_dut):
    rng_a = np.random.default_rng(0)
    rng_b = np.random.default_rng(0)
    plain = simulator.acquire(golden_dut, PLAINTEXT, KEY, rng_a,
                              new_setup_installation=False)
    reinstalled = simulator.acquire(golden_dut, PLAINTEXT, KEY, rng_b,
                                    new_setup_installation=True)
    assert not np.array_equal(plain.samples, reinstalled.samples)


def test_die_cycle_gains_frozen_per_die(simulator, golden_dut):
    a = simulator.die_cycle_gains(golden_dut, 11)
    b = simulator.die_cycle_gains(golden_dut, 11)
    assert np.array_equal(a, b)
    assert a.shape == (11,)
    assert np.all(a > 0)
