"""The acquisition noise pass: byte-identical to the serial chain, and lean.

``EMSimulator._acquire_grid`` draws every acquisition's setup
perturbation and residual noise as one standard-normal block per
generator and applies them in place.  The grid below pins it byte for
byte (``tobytes()``, so signed zeros count) against the per-trace
serial chain in ``tests/oracles/`` over every noise configuration the
block layout depends on: which setup sigmas are non-zero, whether the
residual noise is drawn at all, and whether the trace is quantised.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import HTDetectionPlatform, PlatformConfig
from repro.measurement.em_simulator import EMAcquisitionConfig, EMSimulator
from repro.measurement.noise import EMNoiseModel
from repro.stimulus import random_plaintexts

from oracles import acquire_many

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
STIMULI = random_plaintexts(3, seed=5)

NOISE_CONFIGS = {
    "default": {},
    "no_setup_gain": {"noise": {"setup_gain_sigma": 0.0}},
    "no_setup_offset": {"noise": {"setup_offset_sigma": 0.0}},
    "no_setup": {"noise": {"setup_gain_sigma": 0.0,
                           "setup_offset_sigma": 0.0}},
    "no_residual": {"noise": {"sigma_single_shot": 0.0}},
    "unquantised": {"quantise": False},
}


@pytest.fixture(scope="module")
def grid_platform(golden_design):
    return HTDetectionPlatform(config=PlatformConfig(num_dies=3, seed=41),
                               golden=golden_design)


def _duts(platform):
    return [platform.golden_dut(0), platform.infected_dut("HT1", 1),
            platform.infected_dut("HT_seq", 2)]


def _simulator(settings):
    return EMSimulator(EMAcquisitionConfig(
        noise=EMNoiseModel(**settings.get("noise", {})),
        quantise=settings.get("quantise", True),
    ))


@pytest.mark.parametrize("new_setup", [True, False],
                         ids=["new_setup", "same_setup"])
@pytest.mark.parametrize("shared", [False, True],
                         ids=["per_dut_rngs", "shared_rng"])
@pytest.mark.parametrize("config_name", sorted(NOISE_CONFIGS))
def test_grid_matches_serial_chain_byte_for_byte(grid_platform, config_name,
                                                 shared, new_setup):
    simulator = _simulator(NOISE_CONFIGS[config_name])
    duts = _duts(grid_platform)

    def generators():
        if shared:
            return np.random.default_rng(2024)
        return [np.random.default_rng(900 + die) for die in range(len(duts))]

    batch, offsets = simulator.acquire_many_batch_tensor(
        duts, STIMULI, KEY, generators(), new_setup_installation=new_setup)
    serial_rngs = generators()
    if shared:
        serial_rngs = [serial_rngs] * len(duts)
    for column, (dut, rng) in enumerate(zip(duts, serial_rngs)):
        traces = acquire_many(simulator, dut, STIMULI, KEY, rng,
                              new_setup_installation=new_setup)
        for row, trace in enumerate(traces):
            assert trace.cycle_sample_offsets == offsets
            assert trace.samples.tobytes() == batch[row, column].tobytes(), (
                f"plaintext {row}, DUT {column}")


def test_acquisition_peak_allocation_is_bounded(golden_design):
    """One 16-die x 8-plaintext acquisition allocates little beyond its
    output tensor: no full-size temporaries in the noise or quantise
    pass."""
    platform = HTDetectionPlatform(config=PlatformConfig(num_dies=16, seed=7),
                                   golden=golden_design)
    duts = [platform.infected_dut("HT1", die) for die in range(16)]
    stimuli = random_plaintexts(8, seed=3)
    simulator = platform.em_simulator
    rngs = [np.random.default_rng(die) for die in range(16)]
    # Warm every per-design cache so only the acquisition itself counts.
    simulator.acquire_many_batch_tensor(duts, stimuli, KEY, rngs,
                                        new_setup_installation=True)
    rngs = [np.random.default_rng(die) for die in range(16)]
    tracemalloc.start()
    try:
        signal, _ = simulator.acquire_many_batch_tensor(
            duts, stimuli, KEY, rngs, new_setup_installation=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert signal.shape[:2] == (8, 16)
    assert peak <= 2.5 * signal.nbytes, (
        f"peak {peak / signal.nbytes:.2f}x the output tensor")
