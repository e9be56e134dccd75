"""Serial, interpreted reference of the clock-glitch delay measurement.

:class:`repro.measurement.delay_meter.PathDelayMeter` computes every
arrival time through the compiled timing engine, for the whole
(DUT x pair) grid at once.  These functions are the per-(DUT, pair)
walks it replaced — one scalar ``encrypt_trace`` per pair, one
interpreted two-vector timing walk per (DUT, pair) — and take the meter
as their first argument.  The steps-to-fault sampling itself
(``PathDelayMeter._pair_measurement``) is shared: it is the one
implementation of the fault law, fed with the reference arrivals.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.state import BLOCK_BITS
from repro.measurement.clock import ClockGlitchGenerator
from repro.measurement.delay_meter import (
    DelayMeasurement,
    PairMeasurement,
    PathDelayMeter,
    PlaintextKeyPair,
)
from repro.measurement.dut import DeviceUnderTest

from .aes import AES
from .netlist import input_values
from .timing import TimingEngine


def pair_transitions(meter: PathDelayMeter, dut: DeviceUnderTest,
                     pair: PlaintextKeyPair
                     ) -> "Tuple[Dict[str, int], Dict[str, int]]":
    """Attacked-round (before, after) input vectors for one (P, K) pair."""
    aes = AES(pair.key)
    trace = aes.encrypt_trace(pair.plaintext)
    attacked = meter.config.attacked_round
    if not 2 <= attacked <= trace.num_rounds:
        raise ValueError(
            f"attacked_round must be in 2..{trace.num_rounds}, got {attacked}"
        )
    circuit = dut.circuit
    before = input_values(circuit, trace.round(attacked - 1).state_in,
                          aes.round_keys[attacked - 1])
    after = input_values(circuit, trace.round(attacked).state_in,
                         aes.round_keys[attacked])
    return before, after


def arrival_times_ps(meter: PathDelayMeter, dut: DeviceUnderTest,
                     pair: PlaintextKeyPair) -> np.ndarray:
    """Noiseless per-bit arrival times for one (P, K) pair (NaN = stable)."""
    circuit = dut.circuit
    before, after = pair_transitions(meter, dut, pair)
    engine = TimingEngine(dut.netlist, annotation=dut.delay_annotation(),
                          input_arrival_ps=0.0)
    result = engine.two_vector_arrival_times(before, after)
    endpoint_delays = engine.endpoint_delays(result, circuit.output_d_nets())

    arrivals = np.full(BLOCK_BITS, np.nan)
    for bit_index, net in enumerate(circuit.output_d_nets()):
        delay = endpoint_delays[net]
        if delay is not None:
            arrivals[bit_index] = delay
    return arrivals


def calibrate_glitch(meter: PathDelayMeter, dut: DeviceUnderTest,
                     pairs: Sequence[PlaintextKeyPair]
                     ) -> ClockGlitchGenerator:
    """One glitch sweep covering the DUT's worst observed path."""
    if not pairs:
        raise ValueError("at least one pair is required for calibration")
    worst = 0.0
    for pair in pairs:
        arrivals = arrival_times_ps(meter, dut, pair)
        finite = arrivals[~np.isnan(arrivals)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    if worst <= 0.0:
        raise ValueError("no observable path found during calibration")
    return meter._calibrated_glitch(worst)


def calibrate_glitches(meter: PathDelayMeter, dut: DeviceUnderTest,
                       pairs: Sequence[PlaintextKeyPair]
                       ) -> Dict[int, ClockGlitchGenerator]:
    """Per-pair glitch sweeps (keyed by ``pair.index``)."""
    if not pairs:
        raise ValueError("at least one pair is required for calibration")
    return {pair.index: calibrate_glitch(meter, dut, [pair])
            for pair in pairs}


def measure_pair(meter: PathDelayMeter, dut: DeviceUnderTest,
                 pair: PlaintextKeyPair, glitch: ClockGlitchGenerator,
                 rng: np.random.Generator) -> PairMeasurement:
    """Steps-to-fault of every bit for one (P, K) pair."""
    arrivals = arrival_times_ps(meter, dut, pair)
    return meter._pair_measurement(pair, arrivals, glitch, rng)


def measure(meter: PathDelayMeter, dut: DeviceUnderTest,
            pairs: Sequence[PlaintextKeyPair], glitch=None,
            seed: Optional[int] = None) -> DelayMeasurement:
    """The full campaign (all pairs, all repetitions) on one DUT."""
    if not pairs:
        raise ValueError("the campaign needs at least one (P, K) pair")
    if glitch is None:
        glitch = calibrate_glitches(meter, dut, pairs)
    rng = np.random.default_rng(meter.config.seed if seed is None else seed)
    first_glitch = (glitch if isinstance(glitch, ClockGlitchGenerator)
                    else glitch[pairs[0].index])
    measurement = DelayMeasurement(label=dut.label, glitch=first_glitch,
                                   config=meter.config)
    for pair in pairs:
        pair_glitch = (glitch if isinstance(glitch, ClockGlitchGenerator)
                       else glitch[pair.index])
        measurement.pairs.append(measure_pair(meter, dut, pair, pair_glitch,
                                              rng))
    return measurement
