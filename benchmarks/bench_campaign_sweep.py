"""CAMPAIGN — batched engine versus the old per-die acquisition loop.

The campaign engine's claim: a 16-die x 3-trojan EM campaign through
``CampaignEngine`` (vectorised ``acquire_many_batch_tensor``, shared design and
fingerprint caches) produces the same headline numbers as the sequential
path — the per-die ``acquire`` loop scored by the Sec. V detector — at
least 2x faster.

(The gate was 3x when the per-die loop still interpreted the trojan
netlist cycle by cycle; the compiled kernel of
:mod:`repro.netlist.compiled` sped that shared activity model up ~4x
for *both* paths, so the serial baseline itself got much faster and the
engine's remaining edge — batched trace synthesis and cache reuse — is
enforced at 2x.)
"""

from __future__ import annotations

import time

import numpy as np

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.core.em_detector import PopulationEMDetector
from repro.core.pipeline import HTDetectionPlatform, PlatformConfig

from oracles import (
    acquire_population_traces,
    acquire_population_traces_serial,
)

NUM_DIES = 16
TROJANS = ("HT1", "HT2", "HT3")
SEED = 2015


def _build_platform() -> HTDetectionPlatform:
    return HTDetectionPlatform(
        config=PlatformConfig(num_dies=NUM_DIES, seed=SEED)
    )


def _serial_study(platform: HTDetectionPlatform):
    """The pre-engine path: one ``acquire`` per (design, die); the
    per-trojan false-negative rates of the scored population."""
    golden, infected = acquire_population_traces_serial(platform, TROJANS)
    _, characterisations = PopulationEMDetector().fit_and_characterise(
        golden, infected)
    return {name: char.false_negative_rate
            for name, char in characterisations.items()}


def test_batched_campaign_matches_serial_and_is_2x_faster(benchmark):
    # Both sides start from ready designs (golden built, trojans
    # inserted) — that synthesis is a one-time cost shared by any
    # acquisition strategy.  What is timed is the campaign itself:
    # acquisition of the 16-die x 3-trojan population plus detection.
    serial_platform = _build_platform()
    for name in TROJANS:
        serial_platform.infected_design(name)
    start = time.perf_counter()
    serial_rates = _serial_study(serial_platform)
    serial_seconds = time.perf_counter() - start

    spec = CampaignSpec(name="sweep", trojans=TROJANS,
                        die_counts=(NUM_DIES,), seed=SEED)
    engine = CampaignEngine(spec)
    cell_spec = engine.spec.grid()[0]
    for name in TROJANS:
        engine.platform_for(cell_spec).infected_design(name)
    start = time.perf_counter()
    cell = engine.run_cell(cell_spec)
    engine_seconds = time.perf_counter() - start

    engine_rates = cell.false_negative_rates()
    for name in TROJANS:
        np.testing.assert_allclose(engine_rates[name], serial_rates[name],
                                   rtol=1e-9, atol=1e-12)

    speedup = serial_seconds / engine_seconds
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["engine_seconds"] = round(engine_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["gate"] = 2.0
    for name in TROJANS:
        benchmark.extra_info[f"fn_rate[{name}]"] = round(engine_rates[name], 4)
    assert speedup >= 2.0, (
        f"batched engine must be >= 2x faster than the per-die loop "
        f"(serial {serial_seconds:.3f} s, engine {engine_seconds:.3f} s, "
        f"{speedup:.1f}x)"
    )

    # The timed comparison above is the contract; the benchmark records
    # the steady-state cost of one batched campaign on warm caches.
    benchmark(lambda: engine.run_cell(cell_spec))


def test_batched_acquisition_bitwise_matches_serial():
    """The batch path is not merely close — it is bit-identical."""
    platform_serial = _build_platform()
    platform_batch = _build_platform()
    golden_serial, infected_serial = (
        acquire_population_traces_serial(platform_serial, TROJANS)
    )
    golden_batch, infected_batch = (
        acquire_population_traces(platform_batch, TROJANS)
    )
    for serial_trace, batch_trace in zip(golden_serial, golden_batch):
        assert np.array_equal(serial_trace.samples, batch_trace.samples)
    for name in TROJANS:
        for serial_trace, batch_trace in zip(infected_serial[name],
                                             infected_batch[name]):
            assert np.array_equal(serial_trace.samples, batch_trace.samples)
