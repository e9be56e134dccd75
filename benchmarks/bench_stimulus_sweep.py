"""STIMULUS — whole-stimulus batched acquisition versus the serial loop.

The third hot axis goes vector: after the die population (one
vectorised pass per design) and the netlist walks (the compiled
kernel), the *stimulus* dimension is lifted onto the batched AES kernel of
:mod:`repro.crypto.batch`.  ``EMSimulator.acquire_many_batch_tensor``
synthesises a fig-scale (32 plaintexts x 8 dies) infected-population
study as one stimulus-averaged (dies x samples) matrix — batched
cipher, one compiled trojan-activity evaluation over all encryptions,
one vectorised oscilloscope pass per block of dies — and must be at
least 5x faster than the serial per-plaintext ``acquire_many`` loop
(``tests/oracles/``) while staying bit-identical to its per-die
average.
"""

from __future__ import annotations

import time

import numpy as np

from repro.campaigns import CampaignSpec
from repro.core.pipeline import HTDetectionPlatform
from repro.stimulus import DEFAULT_KEY, random_plaintexts

from oracles import acquire_many, average_stimulus_traces

NUM_DIES = 8
NUM_PLAINTEXTS = 32
TROJAN = "HT2"
SEED = 2015


def _build_population():
    platform = HTDetectionPlatform(CampaignSpec(die_counts=(NUM_DIES,),
                                                seed=SEED))
    duts = [platform.infected_dut(TROJAN, die) for die in range(NUM_DIES)]
    return platform, duts


def _die_rngs():
    return [np.random.default_rng(900 + die) for die in range(NUM_DIES)]


def test_stimulus_batch_matches_serial_and_is_5x_faster(benchmark):
    # The design is built (and the trojan inserted) up front — that
    # synthesis is a one-time cost shared by any acquisition strategy.
    # What is timed is the multi-plaintext population acquisition.
    platform, duts = _build_population()
    simulator = platform.em_simulator
    plaintexts = random_plaintexts(NUM_PLAINTEXTS, seed=11)

    start = time.perf_counter()
    serial = [
        acquire_many(simulator, dut, plaintexts, DEFAULT_KEY, rng,
                     new_setup_installation=True)
        for dut, rng in zip(duts, _die_rngs())
    ]
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch, _ = simulator.acquire_many_batch_tensor(
        duts, plaintexts, DEFAULT_KEY, _die_rngs(),
        new_setup_installation=True,
    )
    batch_seconds = time.perf_counter() - start

    assert batch.shape[0] == NUM_DIES
    for row, averaged in enumerate(average_stimulus_traces(serial)):
        assert averaged.samples.tobytes() == batch[row].tobytes()

    speedup = serial_seconds / batch_seconds
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["batch_seconds"] = round(batch_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["gate"] = 5.0
    benchmark.extra_info["num_plaintexts"] = NUM_PLAINTEXTS
    benchmark.extra_info["num_dies"] = NUM_DIES
    assert speedup >= 5.0, (
        f"acquire_many_batch_tensor must be >= 5x faster than the serial "
        f"per-plaintext loop (serial {serial_seconds:.3f} s, batch "
        f"{batch_seconds:.3f} s, {speedup:.1f}x)"
    )

    # The timed comparison above is the contract; the benchmark records
    # the steady-state cost of one batched stimulus sweep.
    def batched_sweep():
        return simulator.acquire_many_batch_tensor(
            duts, plaintexts, DEFAULT_KEY, _die_rngs(),
            new_setup_installation=True,
        )

    benchmark(batched_sweep)


def test_random_plaintext_campaign_cell_runs_batched():
    """A num_plaintexts > 1 campaign cell produces finite, sane scores."""
    from repro.campaigns import CampaignEngine, CampaignSpec

    spec = CampaignSpec(name="stimulus-sweep", trojans=(TROJAN,),
                        die_counts=(4,), metrics=("local_maxima_sum",),
                        num_plaintexts=8, seed=SEED)
    result = CampaignEngine(spec).run()
    row = result.cells[0].rows[0]
    assert np.isfinite(row.mu) and np.isfinite(row.sigma)
    assert 0.0 <= row.false_negative_rate <= 1.0
