"""The acquisition noise pass: byte-identical to the serial chain, and lean.

``EMSimulator._acquire_grid`` draws every acquisition's setup
perturbation and residual noise as one standard-normal block per
generator and applies them in place.  The grid below pins it byte for
byte (``tobytes()``, so signed zeros count) against the per-trace
serial chain in ``tests/oracles/`` over every noise configuration the
block layout depends on: which setup sigmas are non-zero, whether the
residual noise is drawn at all, and whether the trace is quantised.

Every grid test runs on both fill paths: ``serial`` (the grids here
are far below the thread floor) and ``threaded`` (the floor patched to
0 and two cores assumed, so the DUT columns split across threads).
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import HTDetectionPlatform, PlatformConfig
from repro.measurement import em_simulator
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


def _force_threads(monkeypatch):
    """Thread every grid with distinct generators, over two cores."""
    monkeypatch.setattr(em_simulator, "_THREADED_GRID_FLOOR", 0)
    monkeypatch.setattr(em_simulator, "_available_cores", lambda: 2)


@pytest.fixture
def fill_path(request, monkeypatch):
    if request.param == "threaded":
        _force_threads(monkeypatch)
    return request.param


FILL_PATHS = pytest.mark.parametrize("fill_path", ["serial", "threaded"],
                                     indirect=True)


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


@FILL_PATHS
@pytest.mark.parametrize("new_setup", [True, False],
                         ids=["new_setup", "same_setup"])
@pytest.mark.parametrize("shared", [False, True],
                         ids=["per_dut_rngs", "shared_rng"])
@pytest.mark.parametrize("config_name", sorted(NOISE_CONFIGS))
def test_grid_matches_serial_chain_byte_for_byte(grid_platform, config_name,
                                                 shared, new_setup,
                                                 fill_path):
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


@FILL_PATHS
def test_acquisition_peak_allocation_is_bounded(golden_design, fill_path):
    """One 16-die x 8-plaintext acquisition allocates little beyond its
    output tensor: no full-size temporaries in the noise or quantise
    pass.  ``tracemalloc`` sees every thread's allocations, so the
    threaded fill is held to the same bound."""
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


@pytest.mark.parametrize("layout", ["repeated", "interleaved"])
def test_repeated_generators_stay_serial_in_dut_major_order(
        grid_platform, monkeypatch, layout):
    """A generator shared between columns is consumed column after
    column, exactly as the serial chain does, even where threads would
    otherwise be used."""
    _force_threads(monkeypatch)
    simulator = _simulator({})
    duts = _duts(grid_platform)

    def generators():
        first, second = np.random.default_rng(7), np.random.default_rng(8)
        if layout == "repeated":
            return [first] * len(duts)
        return [first, second, first]

    batch_rngs = generators()
    assert em_simulator._column_chunks(batch_rngs, 10 ** 9) == \
        [(0, len(duts))]
    batch, _ = simulator.acquire_many_batch_tensor(
        duts, STIMULI, KEY, batch_rngs, new_setup_installation=True)
    # The same generator objects, consumed DUT-major by the serial chain.
    for column, (dut, rng) in enumerate(zip(duts, generators())):
        traces = acquire_many(simulator, dut, STIMULI, KEY, rng,
                              new_setup_installation=True)
        for row, trace in enumerate(traces):
            assert trace.samples.tobytes() == batch[row, column].tobytes(), (
                f"plaintext {row}, DUT {column}")


def test_helper_thread_error_reaches_the_caller(grid_platform, monkeypatch):
    """An exception raised while a helper thread fills its columns is
    re-raised by the acquisition, and no helper thread outlives it."""
    _force_threads(monkeypatch)
    simulator = _simulator({})
    duts = _duts(grid_platform)
    rngs = [np.random.default_rng(900 + die) for die in range(len(duts))]
    raised_on = []
    sample_acquisitions = EMNoiseModel.sample_acquisitions

    def failing_on_column_2(model, rng, *args):
        if rng is rngs[2]:
            raised_on.append(threading.current_thread())
            raise RuntimeError("column 2 failed")
        return sample_acquisitions(model, rng, *args)

    monkeypatch.setattr(EMNoiseModel, "sample_acquisitions",
                        failing_on_column_2)
    threads_before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="column 2 failed"):
        simulator.acquire_many_batch_tensor(duts, STIMULI, KEY, rngs)
    assert len(raised_on) == 1
    assert raised_on[0] is not threading.current_thread()
    assert not raised_on[0].is_alive()
    assert set(threading.enumerate()) == threads_before


def test_many_threads_with_fast_switching_match_serial(golden_design,
                                                       monkeypatch):
    """More helper threads than cores, switching every microsecond,
    still write every column exactly as the serial fill does."""
    platform = HTDetectionPlatform(config=PlatformConfig(num_dies=16, seed=7),
                                   golden=golden_design)
    duts = [platform.infected_dut("HT1", die) for die in range(16)]
    stimuli = random_plaintexts(4, seed=3)
    simulator = platform.em_simulator

    def acquire():
        rngs = [np.random.default_rng(die) for die in range(16)]
        signal, _ = simulator.acquire_many_batch_tensor(
            duts, stimuli, KEY, rngs, new_setup_installation=True)
        return signal.tobytes()

    serial = acquire()
    monkeypatch.setattr(em_simulator, "_THREADED_GRID_FLOOR", 0)
    monkeypatch.setattr(em_simulator, "_available_cores", lambda: 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [acquire() for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == serial for result in threaded)
