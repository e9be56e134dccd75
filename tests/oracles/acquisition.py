"""Serial references of the batched EM acquisition.

``src/`` synthesises every trace through one core,
``EMSimulator._acquire_grid`` (batched cipher, one compiled trojan
pass per design, broadcast pulse synthesis, one noise/quantise pass).
The per-encryption chain it replaced lives here: host and trojan
activity of one encryption, its pulse-by-pulse noiseless emission and
amplification, the per-trace setup draw, the oscilloscope's noise and
quantisation, and the per-plaintext and per-(design, die) loops over
them.  Each reference of a method takes the instance (simulator,
amplifier, noise model, oscilloscope or platform) as its first
argument; the generator consumption order is the one the batched core
reproduces.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import HTDetectionPlatform
from repro.measurement.dut import DeviceUnderTest
from repro.measurement.em_probe import Amplifier
from repro.measurement.em_simulator import EMSimulator, EMTrace
from repro.measurement.noise import EMNoiseModel
from repro.measurement.oscilloscope import Oscilloscope
from repro.stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT

from .aes import AES


def amplify(amplifier: Amplifier, signal: np.ndarray) -> np.ndarray:
    """Apply the amplifier gain to a signal."""
    return np.asarray(signal, dtype=float) * amplifier.linear_gain


def batch_noiseless_traces_many(simulator: EMSimulator,
                                duts: Sequence[DeviceUnderTest],
                                plaintexts: Sequence[bytes], key: bytes):
    """Deterministic emissions of a whole (plaintext x DUT) grid: the
    acquisition core's plan and noiseless fill without the oscilloscope
    pass.  Returns ``(signal, cycle_sample_offsets)``."""
    plan = simulator._grid_plan(duts, plaintexts, key)
    signal = np.zeros(plan.shape)
    simulator._fill_noiseless(plan, signal, 0, plan.shape[1])
    return signal, plan.cycle_offsets


def acquire_trace_grid(simulator: EMSimulator,
                       duts: Sequence[DeviceUnderTest],
                       plaintexts: Sequence[bytes], key: bytes, rngs,
                       new_setup_installation: bool = False):
    """Every stored trace of a (plaintext x DUT) grid, as one
    ``(P, D, S)`` tensor: the whole noiseless grid, then the
    oscilloscope pass column by column and one quantisation.

    The acquisition core before it averaged block by block; its
    :func:`average_stimulus_tensor` is what
    ``EMSimulator.acquire_many_batch_tensor`` returns, byte for byte.
    ``rngs`` is one generator per DUT or one shared generator consumed
    DUT-major.  Returns ``(signal, cycle_sample_offsets)``.
    """
    config = simulator.config
    signal, cycle_offsets = batch_noiseless_traces_many(simulator, duts,
                                                        plaintexts, key)
    rngs = simulator._normalised_rngs(duts, rngs)
    sigma = config.oscilloscope.effective_noise_sigma(
        config.noise.sigma_single_shot)
    num_plaintexts, _, num_samples = signal.shape
    for column, rng in enumerate(rngs):
        gains, offsets, noise = config.noise.sample_acquisitions(
            rng, num_plaintexts, num_samples, sigma, new_setup_installation)
        traces = signal[:, column]
        if gains is not None:
            traces *= gains[:, None]
            traces += offsets[:, None]
        if noise is not None:
            traces += noise
    if config.quantise:
        config.oscilloscope.quantise_in_place(
            signal, lsb=config.oscilloscope.effective_lsb())
    return signal, cycle_offsets


def average_stimulus_tensor(grid: np.ndarray) -> np.ndarray:
    """Collapse a ``(plaintexts, dies, samples)`` tensor to per-die means.

    One axis reduction, bit-identical to averaging the per-stimulus
    :class:`EMTrace` samples die by die (:func:`average_stimulus_traces`);
    with one stimulus, the plane itself (``mean(axis=0)`` would turn a
    ``-0.0`` sample into ``+0.0``).
    """
    if grid.shape[0] == 1:
        return grid[0]
    return grid.mean(axis=0)


def sample_setup_perturbation(noise: EMNoiseModel, rng: np.random.Generator
                              ) -> "tuple[float, float]":
    """Draw a (gain, offset) perturbation for one setup installation."""
    gain = 1.0 + rng.normal(0.0, noise.setup_gain_sigma) \
        if noise.setup_gain_sigma > 0 else 1.0
    offset = rng.normal(0.0, noise.setup_offset_sigma) \
        if noise.setup_offset_sigma > 0 else 0.0
    return float(gain), float(offset)


def host_cycle_activities(simulator: EMSimulator, aes: AES,
                          plaintext: bytes) -> List[float]:
    """Per-cycle switching activity of the host AES (load + rounds)."""
    config = simulator.config
    trace = aes.encrypt_trace(plaintext)
    return [
        config.baseline_activity
        + config.register_toggle_weight * toggles
        * (1.0 + config.combinational_activity_factor)
        for toggles in trace.switching_activities()
    ]


def trojan_cycle_activities(simulator: EMSimulator, dut: DeviceUnderTest,
                            aes: AES, plaintext: bytes,
                            encryption_index: int = 0) -> List[float]:
    """Per-cycle dormant activity of the inserted trojan (zeros if clean).

    The trigger toggles of this one encryption (one compiled-kernel
    call, encryption ``encryption_index`` of the campaign) plus the
    size-proportional clock/configuration load of every trojan cell.
    """
    config = simulator.config
    trace = aes.encrypt_trace(plaintext)
    num_cycles = 1 + trace.num_rounds
    if dut.trojan is None:
        return [0.0] * num_cycles
    register_states = [plaintext, trace.initial_state]
    register_states.extend(record.state_out for record in trace.rounds)
    states = np.array([[list(state) for state in register_states]],
                      dtype=np.uint8)
    output_toggles, pin_toggles = dut.trojan.encryption_activity_counts(
        states, [encryption_index]
    )
    clock_load = (config.trojan_clock_load_per_cell
                  * dut.trojan.cell_count())
    return [clock_load + (int(out) + config.trojan_pin_toggle_weight
                          * int(pins))
            for out, pins in zip(output_toggles[0], pin_toggles[0])]


def noiseless_trace(simulator: EMSimulator, dut: DeviceUnderTest,
                    plaintext: bytes, key: bytes,
                    encryption_index: int = 0) -> EMTrace:
    """Deterministic emission of one encryption, pulse by pulse."""
    config = simulator.config
    kernel = simulator._kernel
    aes = AES(key)
    host_activity = host_cycle_activities(simulator, aes, plaintext)
    trojan_activity = trojan_cycle_activities(
        simulator, dut, aes, plaintext, encryption_index
    )
    num_rounds = len(host_activity) - 1
    samples_per_cycle = config.samples_per_cycle
    total_samples = config.total_samples(num_rounds)
    signal = np.zeros(total_samples)

    host_coupling = simulator.host_probe_coupling(dut)
    trojan_coupling = simulator.trojan_probe_coupling(dut)
    cycle_gains = simulator.die_cycle_gains(dut, len(host_activity))
    base_gain = dut.em_gain()

    cycle_offsets: List[int] = []
    for cycle in range(len(host_activity)):
        offset = (config.pre_trigger_cycles + cycle) * samples_per_cycle
        cycle_offsets.append(offset)
        amplitude = cycle_gains[cycle] * config.activity_to_amplitude * (
            host_coupling * host_activity[cycle]
            + trojan_coupling * trojan_activity[cycle]
        )
        end = min(total_samples, offset + kernel.size)
        signal[offset:end] += amplitude * kernel[: end - offset]

    # Idle cycles still show the clock-tree baseline.
    idle_cycles = list(range(config.pre_trigger_cycles)) + [
        config.pre_trigger_cycles + len(host_activity) + cycle
        for cycle in range(config.post_trigger_cycles)
    ]
    for cycle_index in idle_cycles:
        offset = cycle_index * samples_per_cycle
        amplitude = base_gain * config.activity_to_amplitude * host_coupling \
            * config.baseline_activity
        end = min(total_samples, offset + kernel.size)
        signal[offset:end] += amplitude * kernel[: end - offset]

    signal = amplify(config.amplifier, signal) + dut.em_offset()
    return EMTrace(
        samples=signal,
        label=dut.label,
        plaintext=bytes(plaintext),
        sample_period_ns=1.0 / config.oscilloscope.sample_rate_gsps,
        cycle_sample_offsets=cycle_offsets,
    )


def oscilloscope_acquire(scope: Oscilloscope, averaged_signal: np.ndarray,
                         noise_sigma_single_shot: float,
                         rng: np.random.Generator,
                         quantise: bool = True) -> np.ndarray:
    """Stored (averaged) trace of one noiseless input signal.

    Adds the residual averaged noise, then quantises at the averaged
    resolution.
    """
    signal = np.asarray(averaged_signal, dtype=float)
    sigma = scope.effective_noise_sigma(noise_sigma_single_shot)
    if sigma > 0:
        signal = signal + rng.normal(0.0, sigma, size=signal.shape)
    if quantise:
        signal = scope.quantise(signal, lsb=scope.effective_lsb())
    return signal


def acquire_serial(simulator: EMSimulator, dut: DeviceUnderTest,
                   plaintext: bytes, key: bytes, rng: np.random.Generator,
                   encryption_index: int = 0,
                   new_setup_installation: bool = False) -> EMTrace:
    """One averaged trace: noiseless emission, setup draw, then the scope."""
    trace = noiseless_trace(simulator, dut, plaintext, key, encryption_index)
    config = simulator.config
    signal = trace.samples
    if new_setup_installation:
        gain, offset = sample_setup_perturbation(config.noise, rng)
        signal = signal * gain + offset
    return dataclasses.replace(trace, samples=oscilloscope_acquire(
        config.oscilloscope, signal,
        noise_sigma_single_shot=config.noise.sigma_single_shot,
        rng=rng,
        quantise=config.quantise,
    ))


def acquire_many(simulator: EMSimulator, dut: DeviceUnderTest,
                 plaintexts: Sequence[bytes], key: bytes,
                 rng: np.random.Generator,
                 new_setup_installation: bool = False) -> List[EMTrace]:
    """One averaged trace per plaintext; plaintext ``i`` is encryption ``i``."""
    return [
        acquire_serial(simulator, dut, plaintext, key, rng,
                       encryption_index=index,
                       new_setup_installation=new_setup_installation)
        for index, plaintext in enumerate(plaintexts)
    ]


def acquire_population_traces_serial(platform: HTDetectionPlatform,
                                     trojan_names: Sequence[str],
                                     plaintext: Optional[bytes] = None,
                                     key: Optional[bytes] = None
                                     ) -> "tuple[List[EMTrace], Dict[str, List[EMTrace]]]":
    """Reference per-die acquisition loop (one serial acquisition per DUT).

    The ground truth :func:`acquire_population_traces` is validated
    (and benchmarked) against.
    """
    plaintext = plaintext if plaintext is not None else DEFAULT_PLAINTEXT
    key = key if key is not None else DEFAULT_KEY
    golden_traces: List[EMTrace] = []
    infected_traces: Dict[str, List[EMTrace]] = {name: [] for name in trojan_names}
    for die_index, rng in enumerate(platform._die_rngs(len(platform.population))):
        golden_traces.append(
            acquire_serial(
                platform.em_simulator, platform.golden_dut(die_index),
                plaintext, key, rng, new_setup_installation=True,
            )
        )
        for name in trojan_names:
            infected_traces[name].append(
                acquire_serial(
                    platform.em_simulator,
                    platform.infected_dut(name, die_index), plaintext, key,
                    rng, new_setup_installation=True,
                )
            )
    return golden_traces, infected_traces


def acquire_population_traces(platform: HTDetectionPlatform,
                              trojan_names: Sequence[str],
                              plaintext: Optional[bytes] = None,
                              key: Optional[bytes] = None
                              ) -> "tuple[List[EMTrace], Dict[str, List[EMTrace]]]":
    """The single-plaintext population as :class:`EMTrace` lists.

    A view of ``platform.acquire_population_tensors`` for the tests
    that compare or score trace objects; ``src/`` keeps the population
    matrix-resident and wraps traces only for archives.
    """
    plaintexts = None if plaintext is None else [plaintext]
    return platform.acquire_population_tensors(
        trojan_names, plaintexts, key).to_traces()


def acquire_population_traces_stimuli_serial(
        platform: HTDetectionPlatform, trojan_names: Sequence[str], plaintexts: Sequence[bytes],
        key: Optional[bytes] = None
        ) -> "tuple[List[List[EMTrace]], Dict[str, List[List[EMTrace]]]]":
    """Reference nested loop for the multi-stimulus acquisition.

    One serial :func:`acquire_many` per (design, die), golden
    first, in die order — the ground truth the multi-stimulus
    ``platform.acquire_population_tensors`` is validated (and
    benchmarked) against.
    """
    key = key if key is not None else DEFAULT_KEY
    golden_traces: List[List[EMTrace]] = []
    infected_traces: Dict[str, List[List[EMTrace]]] = {
        name: [] for name in trojan_names
    }
    rngs = platform._die_rngs(len(platform.population))
    for die_index, rng in enumerate(rngs):
        golden_traces.append(
            acquire_many(
                platform.em_simulator, platform.golden_dut(die_index),
                plaintexts, key, rng, new_setup_installation=True,
            )
        )
    for name in trojan_names:
        for die_index, rng in enumerate(rngs):
            infected_traces[name].append(
                acquire_many(
                    platform.em_simulator,
                    platform.infected_dut(name, die_index), plaintexts, key,
                    rng, new_setup_installation=True,
                )
            )
    return golden_traces, infected_traces


def average_stimulus_traces(per_die_traces: Sequence[Sequence[EMTrace]]
                            ) -> List[EMTrace]:
    """Collapse a (die x plaintext) trace grid to one trace per die.

    A random-plaintext campaign characterises each die by the mean of
    its per-stimulus averaged traces (the multi-stimulus analogue of the
    oscilloscope's 1 000-fold same-stimulus averaging); the golden
    reference and every infected device are averaged over the *same*
    stimulus set, so the Sec. V comparison stays like-for-like.
    Serial (:class:`EMTrace`-level) reference of
    :func:`average_stimulus_tensor`.
    """
    averaged: List[EMTrace] = []
    for die_traces in per_die_traces:
        if not die_traces:
            raise ValueError("every die needs at least one stimulus trace")
        first = die_traces[0]
        samples = np.mean([trace.samples for trace in die_traces], axis=0)
        averaged.append(EMTrace(
            samples=samples,
            label=first.label,
            plaintext=first.plaintext,
            sample_period_ns=first.sample_period_ns,
            cycle_sample_offsets=list(first.cycle_sample_offsets),
        ))
    return averaged
