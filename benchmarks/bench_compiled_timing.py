"""COMPILED KERNEL — array-based timing versus the interpreted walk.

The compiled netlist kernel's claim: a Fig. 3-scale delay study (golden
fingerprint plus clean and infected devices, several (P, K) pairs,
everything through ``PathDelayMeter``) runs **at least 5x faster**
through the compiled batch path (``measure_batch`` on
:class:`~repro.netlist.compiled.CompiledTimingEngine`) than through the
interpreted per-cell reference loop (the ``measure`` oracle per DUT on
the interpreted ``TimingEngine`` in ``tests/oracles/``) — while
producing bit-identical steps-to-fault matrices.
"""

from __future__ import annotations

import time

import numpy as np

from repro.campaigns import CampaignSpec
from repro.core.pipeline import HTDetectionPlatform
from repro.measurement.delay_meter import generate_pk_pairs

from oracles import (
    TimingEngine,
    calibrate_glitches,
    measure,
    pair_transitions,
    two_vector_result,
)

NUM_PAIRS = 6
SEED = 2015
TROJANS = ("HT_comb", "HT_seq")
MIN_SPEEDUP = 5.0


def _build_bench() -> tuple:
    platform = HTDetectionPlatform(CampaignSpec(
        die_counts=(2,), seed=SEED, delay_repetitions=3))
    meter = platform.delay_meter
    pairs = generate_pk_pairs(NUM_PAIRS, seed=SEED + 7)
    # The Fig. 3 device set: two clean controls and the two Sec. III
    # trojans, all on die 0, measured against per-pair sweeps calibrated
    # on the golden model.
    duts = [platform.golden_dut(0, label="Clean1"),
            platform.golden_dut(0, label="Clean2")]
    duts.extend(platform.infected_dut(name, 0) for name in TROJANS)
    glitch = calibrate_glitches(meter, duts[0], pairs)
    seeds = [SEED + 100 + index for index in range(len(duts))]
    # Shared one-time costs stay outside the timed region: the delay
    # annotation of every DUT (used identically by both paths) and the
    # one-off lowering of the netlist into the compiled form.
    for dut in duts:
        dut.delay_annotation()
    duts[0].circuit.netlist.compiled()
    return meter, duts, pairs, glitch, seeds


def test_compiled_delay_study_matches_interpreted_and_is_5x_faster(benchmark):
    meter, duts, pairs, glitch, seeds = _build_bench()

    start = time.perf_counter()
    serial = [measure(meter, dut, pairs, glitch, seed=seed)
              for dut, seed in zip(duts, seeds)]
    interpreted_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = meter.measure_batch(duts, pairs, glitch, seeds=seeds)
    compiled_seconds = time.perf_counter() - start

    for serial_measurement, batch_measurement in zip(serial, batch):
        assert serial_measurement.label == batch_measurement.label
        assert np.array_equal(serial_measurement.steps_matrix(),
                              batch_measurement.steps_matrix())
        for serial_pair, batch_pair in zip(serial_measurement.pairs,
                                           batch_measurement.pairs):
            same = ((np.isnan(serial_pair.arrival_ps)
                     & np.isnan(batch_pair.arrival_ps))
                    | (serial_pair.arrival_ps == batch_pair.arrival_ps))
            assert same.all(), "arrival times must be bit-identical"

    speedup = interpreted_seconds / compiled_seconds
    benchmark.extra_info["interpreted_seconds"] = round(interpreted_seconds, 4)
    benchmark.extra_info["compiled_seconds"] = round(compiled_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["gate"] = MIN_SPEEDUP
    benchmark.extra_info["devices"] = len(duts)
    benchmark.extra_info["pairs"] = NUM_PAIRS
    assert speedup >= MIN_SPEEDUP, (
        f"compiled delay study must be >= {MIN_SPEEDUP}x faster than the "
        f"interpreted loop (interpreted {interpreted_seconds:.3f} s, "
        f"compiled {compiled_seconds:.3f} s, {speedup:.1f}x)"
    )

    # Steady-state cost of one compiled campaign on warm caches.
    benchmark(lambda: meter.measure_batch(duts, pairs, glitch, seeds=seeds))


def test_compiled_two_vector_sweep_bitwise_matches_interpreted():
    """Spot-check at the engine level (below the meter's noise sampling)."""
    from repro.netlist.compiled import CompiledTimingEngine

    meter, duts, pairs, _, _ = _build_bench()
    dut = duts[-1]
    before, after = pair_transitions(meter, dut, pairs[0])
    interpreted = TimingEngine(dut.netlist, dut.delay_annotation())
    compiled = CompiledTimingEngine(dut.netlist.compiled(),
                                    dut.delay_annotation())
    reference = interpreted.two_vector_arrival_times(before, after)
    result = two_vector_result(compiled, before, after)
    assert result.values_before == reference.values_before
    assert result.values_after == reference.values_after
    assert result.arrival_ps == reference.arrival_ps
