"""Equivalence of the batched acquisition paths with the serial loops.

The acquisition views of ``EMSimulator`` (``acquire``,
``acquire_batch_matrix``, ``acquire_many_batch_tensor``) and
``PathDelayMeter.measure_batch`` are pure performance refactors: for
every trojan in the catalog (and the golden design) they must reproduce
the per-DUT serial results within float tolerance — in fact
bit-for-bit, which is what most of these assertions check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import HTDetectionPlatform, PlatformConfig
from repro.crypto.batch import encrypt_round_states
from repro.measurement.delay_meter import DelayMeasurementConfig, generate_pk_pairs
from repro.stimulus import DEFAULT_PLAINTEXT, random_plaintexts
from repro.trojan.library import available_trojans, build_trojan

from oracles import (
    acquire_many,
    acquire_population_traces,
    acquire_population_traces_serial,
    acquire_population_traces_stimuli_serial,
    acquire_serial,
    arrival_times_ps,
    average_stimulus_traces,
    build_delay_scorer,
    calibrate_glitch,
    calibrate_glitches,
    encryption_activity_counts_loop,
    measure,
    noiseless_trace,
    pair_transitions,
    scores_serial,
)

NUM_DIES = 3
PLAINTEXT = bytes(range(16))
KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
STIMULI = random_plaintexts(4, seed=91)


@pytest.fixture(scope="module")
def batch_platform(golden_design):
    return HTDetectionPlatform(
        config=PlatformConfig(
            num_dies=NUM_DIES, seed=31,
            delay=DelayMeasurementConfig(repetitions=3, seed=31),
        ),
        golden=golden_design,
    )


def _duts(platform, trojan_name):
    if trojan_name is None:
        return [platform.golden_dut(die) for die in range(NUM_DIES)]
    return [platform.infected_dut(trojan_name, die)
            for die in range(NUM_DIES)]


@pytest.mark.parametrize("trojan_name", [None] + available_trojans())
def test_noiseless_batch_matches_per_die_loop(batch_platform, trojan_name):
    simulator = batch_platform.em_simulator
    duts = _duts(batch_platform, trojan_name)
    serial = [noiseless_trace(simulator, dut, PLAINTEXT, KEY) for dut in duts]
    batch, offsets = simulator.batch_noiseless_traces_many(duts, [PLAINTEXT],
                                                           KEY)
    for row, serial_trace in enumerate(serial):
        assert serial_trace.cycle_sample_offsets == offsets
        np.testing.assert_allclose(batch[0, row], serial_trace.samples,
                                   rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("trojan_name", [None] + available_trojans())
def test_acquire_batch_matches_per_die_loop(batch_platform, trojan_name):
    simulator = batch_platform.em_simulator
    duts = _duts(batch_platform, trojan_name)
    serial = [
        acquire_serial(simulator, dut, PLAINTEXT, KEY,
                       np.random.default_rng(100 + die),
                       new_setup_installation=True)
        for die, dut in enumerate(duts)
    ]
    batch, _ = simulator.acquire_batch_matrix(
        duts, PLAINTEXT, KEY,
        [np.random.default_rng(100 + die) for die in range(len(duts))],
        new_setup_installation=True,
    )
    for row, serial_trace in enumerate(serial):
        assert np.array_equal(serial_trace.samples, batch[row])


def test_acquire_batch_with_shared_generator_matches_serial(batch_platform):
    """A single shared generator is consumed in DUT order, like a loop."""
    simulator = batch_platform.em_simulator
    duts = _duts(batch_platform, "HT_comb")
    rng_serial = np.random.default_rng(7)
    serial = [acquire_serial(simulator, dut, PLAINTEXT, KEY, rng_serial)
              for dut in duts]
    batch, _ = simulator.acquire_batch_matrix(duts, PLAINTEXT, KEY,
                                              np.random.default_rng(7))
    for row, serial_trace in enumerate(serial):
        assert np.array_equal(serial_trace.samples, batch[row])


def test_acquire_batch_rejects_mismatched_generators(batch_platform):
    duts = _duts(batch_platform, None)
    with pytest.raises(ValueError):
        batch_platform.em_simulator.acquire_batch_matrix(
            duts, PLAINTEXT, KEY, [np.random.default_rng(0)]
        )


def test_population_acquisition_matches_serial_reference(batch_platform):
    trojans = ("HT1", "HT_seq")
    golden_serial, infected_serial = (
        acquire_population_traces_serial(batch_platform, trojans)
    )
    golden_batch, infected_batch = (
        acquire_population_traces(batch_platform, trojans)
    )
    for serial_trace, batch_trace in zip(golden_serial, golden_batch):
        assert np.array_equal(serial_trace.samples, batch_trace.samples)
    for name in trojans:
        for serial_trace, batch_trace in zip(infected_serial[name],
                                             infected_batch[name]):
            assert np.array_equal(serial_trace.samples, batch_trace.samples)


@pytest.mark.parametrize("trojan_name", [None] + available_trojans())
def test_acquire_many_batch_matches_serial_acquire_many(batch_platform,
                                                        trojan_name):
    """The whole-stimulus tensor path equals the per-plaintext loop."""
    simulator = batch_platform.em_simulator
    duts = _duts(batch_platform, trojan_name)
    serial = [
        acquire_many(simulator, dut, STIMULI, KEY,
                     np.random.default_rng(300 + die),
                     new_setup_installation=True)
        for die, dut in enumerate(duts)
    ]
    batch, offsets = simulator.acquire_many_batch_tensor(
        duts, STIMULI, KEY,
        [np.random.default_rng(300 + die) for die in range(len(duts))],
        new_setup_installation=True,
    )
    assert batch.shape[:2] == (len(STIMULI), len(duts))
    for column, serial_list in enumerate(serial):
        assert len(serial_list) == len(STIMULI)
        for row, serial_trace in enumerate(serial_list):
            assert serial_trace.cycle_sample_offsets == offsets
            assert np.array_equal(serial_trace.samples, batch[row, column])


def test_acquire_many_batch_with_shared_generator_matches(batch_platform):
    """A shared generator is consumed DUT-major, like the nested loop."""
    simulator = batch_platform.em_simulator
    duts = _duts(batch_platform, "HT2")
    rng_serial = np.random.default_rng(17)
    serial = [acquire_many(simulator, dut, STIMULI, KEY, rng_serial)
              for dut in duts]
    batch, _ = simulator.acquire_many_batch_tensor(
        duts, STIMULI, KEY, np.random.default_rng(17))
    for column, serial_list in enumerate(serial):
        for row, serial_trace in enumerate(serial_list):
            assert np.array_equal(serial_trace.samples, batch[row, column])


def test_population_stimuli_acquisition_matches_serial(batch_platform):
    """The multi-stimulus population equals the serial nested loop,
    stimulus-averaged per die."""
    trojans = ("HT1", "HT_seq")
    golden_serial, infected_serial = (
        acquire_population_traces_stimuli_serial(
            batch_platform, trojans, STIMULI)
    )
    tensors = batch_platform.acquire_population_tensors(trojans, STIMULI)
    for row, trace in enumerate(average_stimulus_traces(golden_serial)):
        assert np.array_equal(tensors.golden[row], trace.samples)
    for name in trojans:
        for row, trace in enumerate(
                average_stimulus_traces(infected_serial[name])):
            assert np.array_equal(tensors.infected[name][row],
                                  trace.samples)


@pytest.mark.parametrize("trojan_name", available_trojans())
def test_encryption_activity_counts_match_reference_loop(device,
                                                         trojan_name):
    """Vectorised per-trojan overrides equal the per-encryption walk."""
    trojan = build_trojan(trojan_name, device)
    states = encrypt_round_states(STIMULI, KEY)
    indices = [0, 3, 1, 255]
    reference = encryption_activity_counts_loop(
        trojan, states, indices
    )
    batched = trojan.encryption_activity_counts(states, indices)
    assert np.array_equal(reference[0], batched[0])
    assert np.array_equal(reference[1], batched[1])


def test_delay_measure_batch_matches_per_dut_loop(batch_platform):
    meter = batch_platform.delay_meter
    pairs = generate_pk_pairs(2, seed=11)
    duts = [batch_platform.golden_dut(0, label="GM"),
            batch_platform.infected_dut("HT_comb", 0),
            batch_platform.infected_dut("HT_seq", 0)]
    glitch = calibrate_glitches(meter, duts[0], pairs)
    seeds = [41, 42, 43]
    serial = [measure(meter, dut, pairs, glitch, seed=seed)
              for dut, seed in zip(duts, seeds)]
    batch = meter.measure_batch(duts, pairs, glitch, seeds=seeds)
    for serial_measurement, batch_measurement in zip(serial, batch):
        assert serial_measurement.label == batch_measurement.label
        np.testing.assert_allclose(batch_measurement.steps_matrix(),
                                   serial_measurement.steps_matrix(),
                                   rtol=0, atol=0)


def test_compiled_arrivals_and_calibration_match_interpreted(batch_platform):
    """Every arrival the meter reads — the (DUT x pair) grid, the
    one-cell view and the glitch calibrations built on them — equals
    the interpreted per-cell walk bit for bit (NaN = stable bit)."""
    meter = batch_platform.delay_meter
    pairs = generate_pk_pairs(3, seed=17)
    duts = [batch_platform.golden_dut(0), batch_platform.golden_dut(2),
            batch_platform.infected_dut("HT_comb", 1),
            batch_platform.infected_dut("HT_seq", 0)]
    grid = meter.batch_arrival_times(duts, pairs)
    for dut_index, dut in enumerate(duts):
        for pair_index, pair in enumerate(pairs):
            reference = arrival_times_ps(meter, dut, pair)
            assert np.array_equal(grid[dut_index, pair_index], reference,
                                  equal_nan=True)
            assert np.array_equal(meter.arrival_times_ps(dut, pair),
                                  reference, equal_nan=True)
        assert meter.calibrate_glitch(dut, pairs).periods() == \
            calibrate_glitch(meter, dut, pairs).periods()
        compiled = meter.calibrate_glitches(dut, pairs)
        interpreted = calibrate_glitches(meter, dut, pairs)
        assert compiled.keys() == interpreted.keys()
        for index, glitch in compiled.items():
            assert glitch.periods() == interpreted[index].periods()


def test_pair_transitions_batch_matches_serial(batch_platform):
    """Batched-cipher attacked-round stimuli equal the scalar walk."""
    meter = batch_platform.delay_meter
    dut = batch_platform.golden_dut(0)
    for pairs in (generate_pk_pairs(4, seed=21),
                  generate_pk_pairs(3, seed=22, fixed_key=KEY)):
        serial = [pair_transitions(meter, dut, pair) for pair in pairs]
        assert meter.pair_transitions_batch(dut, pairs) == serial
    assert meter.pair_transitions_batch(dut, []) == []


def test_delay_measure_batch_self_calibration_matches(batch_platform):
    meter = batch_platform.delay_meter
    pairs = generate_pk_pairs(2, seed=13)
    duts = [batch_platform.golden_dut(1), batch_platform.infected_dut("HT3", 1)]
    serial = [measure(meter, dut, pairs, None, seed=5) for dut in duts]
    batch = meter.measure_batch(duts, pairs, None, seeds=[5, 5])
    for serial_measurement, batch_measurement in zip(serial, batch):
        assert np.array_equal(serial_measurement.steps_matrix(),
                              batch_measurement.steps_matrix())
        for serial_pair, batch_pair in zip(serial_measurement.pairs,
                                           batch_measurement.pairs):
            assert serial_pair.glitch.periods() == batch_pair.glitch.periods()


# -- batched scoring (PR 5): campaign/experiment scores vs serial loops -------


def test_acquire_batch_matrix_matches_wrapped_traces(batch_platform):
    """The single-stimulus matrix view and the one-cell EMTrace view
    carry identical samples."""
    simulator = batch_platform.em_simulator
    duts = _duts(batch_platform, "HT1")
    matrix, offsets = simulator.acquire_batch_matrix(
        duts, PLAINTEXT, KEY,
        [np.random.default_rng(500 + die) for die in range(len(duts))],
        new_setup_installation=True,
    )
    traces = [
        simulator.acquire(dut, PLAINTEXT, KEY,
                          np.random.default_rng(500 + die),
                          new_setup_installation=True)
        for die, dut in enumerate(duts)
    ]
    assert matrix.shape == (len(duts), len(traces[0]))
    for row, trace in enumerate(traces):
        assert matrix[row].tobytes() == trace.samples.tobytes()
        assert trace.plaintext == PLAINTEXT
        assert trace.label == duts[row].label
        assert trace.cycle_sample_offsets == list(offsets)


def test_population_tensors_match_trace_acquisition(batch_platform):
    """The tensor-resident population equals the EMTrace population."""
    trojans = ("HT1", "HT_seq")
    tensors = batch_platform.acquire_population_tensors(trojans)
    golden_traces, infected_traces = (
        acquire_population_traces(batch_platform, trojans)
    )
    for row, trace in enumerate(golden_traces):
        assert np.array_equal(tensors.golden[row], trace.samples)
        assert tensors.golden_labels[row] == trace.label
    for name in trojans:
        for row, trace in enumerate(infected_traces[name]):
            assert np.array_equal(tensors.infected[name][row], trace.samples)
    wrapped_golden, wrapped_infected = tensors.to_traces()
    for wrapped, trace in zip(wrapped_golden, golden_traces):
        assert np.array_equal(wrapped.samples, trace.samples)
        assert wrapped.label == trace.label
        assert wrapped.plaintext == trace.plaintext
        assert wrapped.sample_period_ns == trace.sample_period_ns
        assert wrapped.cycle_sample_offsets == trace.cycle_sample_offsets
    for name in trojans:
        for wrapped, trace in zip(wrapped_infected[name],
                                  infected_traces[name]):
            assert np.array_equal(wrapped.samples, trace.samples)


def test_average_stimulus_tensor_matches_trace_average(batch_platform):
    from repro.core.pipeline import average_stimulus_tensor

    simulator = batch_platform.em_simulator
    duts = _duts(batch_platform, "HT3")
    tensor, _ = simulator.acquire_many_batch_tensor(
        duts, STIMULI, KEY,
        [np.random.default_rng(800 + die) for die in range(len(duts))],
    )
    grid = [acquire_many(simulator, dut, STIMULI, KEY,
                         np.random.default_rng(800 + die))
            for die, dut in enumerate(duts)]
    averaged_matrix = average_stimulus_tensor(tensor)
    averaged_traces = average_stimulus_traces(grid)
    for row, trace in enumerate(averaged_traces):
        assert np.array_equal(averaged_matrix[row], trace.samples)


def test_stimulus_tensors_match_averaged_traces(batch_platform):
    """Multi-stimulus population tensors equal the serial per-plaintext
    traces of the same per-die noise streams, averaged per die."""
    trojans = ("HT1",)
    tensors = batch_platform.acquire_population_tensors(trojans, STIMULI)
    simulator = batch_platform.em_simulator
    rngs = batch_platform._die_rngs()
    golden_grid = [acquire_many(simulator, dut, STIMULI, KEY, rng,
                                new_setup_installation=True)
                   for dut, rng in zip(_duts(batch_platform, None), rngs)]
    infected_grid = [acquire_many(simulator, dut, STIMULI, KEY, rng,
                                  new_setup_installation=True)
                     for dut, rng in zip(_duts(batch_platform, "HT1"), rngs)]
    assert tensors.plaintext == STIMULI[0]
    for row, trace in enumerate(average_stimulus_traces(golden_grid)):
        assert np.array_equal(tensors.golden[row], trace.samples)
    for row, trace in enumerate(average_stimulus_traces(infected_grid)):
        assert np.array_equal(tensors.infected["HT1"][row], trace.samples)


def test_single_stimulus_population_is_byte_identical_to_serial(
        batch_platform):
    """One stimulus keeps the acquired plane itself: every sample,
    signed zeros included, equals the serial per-die acquisition.
    (``np.array_equal`` treats -0.0 and +0.0 as equal, so compare
    bytes.)"""
    trojans = ("HT1", "HT_seq")
    golden_serial, infected_serial = (
        acquire_population_traces_serial(batch_platform, trojans)
    )
    serial_golden = np.stack([trace.samples for trace in golden_serial])
    assert np.signbit(serial_golden[serial_golden == 0]).any()
    for tensors in (batch_platform.acquire_population_tensors(trojans),
                    batch_platform.acquire_population_tensors(
                        trojans, [DEFAULT_PLAINTEXT])):
        assert tensors.golden.tobytes() == serial_golden.tobytes()
        for name in trojans:
            serial = np.stack([trace.samples
                               for trace in infected_serial[name]])
            assert tensors.infected[name].tobytes() == serial.tobytes()


def test_delay_difference_batch_matches_serial(batch_platform):
    from repro.core.delay_detector import DelayDetector
    from repro.core.fingerprint import DelayFingerprint

    meter = batch_platform.delay_meter
    pairs = generate_pk_pairs(2, seed=19)
    golden_dut = batch_platform.golden_dut(0, label="GM")
    fingerprint_measurement = meter.measure_batch(
        [golden_dut], pairs, None, seeds=[3])[0]
    glitch = {
        pair.index: pair_measurement.glitch
        for pair, pair_measurement in zip(pairs,
                                          fingerprint_measurement.pairs)
    }
    detector = DelayDetector(
        DelayFingerprint.from_measurement(fingerprint_measurement))
    duts = [batch_platform.golden_dut(die) for die in range(NUM_DIES)]
    duts += [batch_platform.infected_dut("HT_comb", die)
             for die in range(NUM_DIES)]
    measurements = meter.measure_batch(duts, pairs, glitch,
                                       seeds=list(range(40, 40 + len(duts))))
    batched = detector.difference_ps_batch(measurements)
    assert batched.shape[0] == len(measurements)
    for index, measurement in enumerate(measurements):
        assert np.array_equal(batched[index],
                              detector.difference_ps(measurement))
    assert detector.difference_ps_batch([]).shape == (
        0, *detector.fingerprint.mean_steps.shape)


def test_campaign_em_rows_match_serial_scoring(batch_platform):
    """Campaign cell mu/sigma/FN are bit-identical to the serial loops."""
    from repro.analysis.gaussian import fit_gaussian, pooled_std
    from repro.campaigns import CampaignEngine, CampaignSpec
    from repro.campaigns.engine import build_metric
    from repro.core.metrics import false_negative_rate

    spec = CampaignSpec(
        name="batch-equivalence", trojans=("HT1", "HT3"), die_counts=(3,),
        metrics=("local_maxima_sum", "l1", "max_difference"), seed=31,
    )
    engine = CampaignEngine(spec, golden=batch_platform.golden)
    result = engine.run()
    for cell, cell_result in zip(spec.grid(), result.cells):
        golden_traces, infected_traces = engine.acquire_cell_traces(cell)
        metric = build_metric(cell.metric)
        reference = np.mean([trace.samples for trace in golden_traces],
                            axis=0)
        genuine_scores = scores_serial(metric, golden_traces, reference)
        genuine_fit = fit_gaussian(genuine_scores)
        assert cell_result.golden_score_mean == float(genuine_fit.mean)
        assert cell_result.golden_score_std == float(genuine_fit.std)
        for row in cell_result.rows:
            infected_scores = scores_serial(
                metric, infected_traces[row.trojan], reference)
            infected_fit = fit_gaussian(infected_scores)
            mu = infected_fit.mean - genuine_fit.mean
            sigma = pooled_std(genuine_scores, infected_scores)
            assert row.mu == float(mu)
            assert row.sigma == float(sigma)
            assert row.false_negative_rate == false_negative_rate(mu, sigma)


def test_campaign_delay_rows_match_serial_scoring(batch_platform):
    """Delay cells' batched scorers equal the per-die serial scorers."""
    from repro.analysis.gaussian import fit_gaussian, pooled_std
    from repro.campaigns import CampaignEngine, CampaignSpec
    from repro.core.metrics import false_negative_rate

    spec = CampaignSpec(
        name="delay-batch-equivalence", trojans=("HT_comb",),
        die_counts=(3,),
        metrics=("delay_max_difference", "delay_mean_pair_max"),
        num_pk_pairs=2, delay_repetitions=3, seed=31,
    )
    engine = CampaignEngine(spec, golden=batch_platform.golden)
    result = engine.run()
    for cell, cell_result in zip(spec.grid(), result.cells):
        data = engine.delay_study_data(cell)
        scorer = build_delay_scorer(cell.metric)
        genuine_scores = np.array(
            [scorer(plane) for plane in data.golden_differences])
        genuine_fit = fit_gaussian(genuine_scores)
        assert cell_result.golden_score_mean == float(genuine_fit.mean)
        for row in cell_result.rows:
            infected_scores = np.array(
                [scorer(plane)
                 for plane in data.infected_differences[row.trojan]])
            mu = float(fit_gaussian(infected_scores).mean - genuine_fit.mean)
            sigma = float(pooled_std(genuine_scores, infected_scores))
            assert row.mu == mu
            assert row.sigma == sigma
            assert row.false_negative_rate == false_negative_rate(mu, sigma)


def test_population_study_matches_serial_replica(batch_platform):
    """The tensor-resident Sec. V study equals a fully serial replica."""
    from repro.analysis.gaussian import fit_gaussian, pooled_std
    from repro.campaigns import CampaignEngine, CampaignSpec
    from repro.core.metrics import LocalMaximaSumMetric, false_negative_rate

    trojans = ("HT1", "HT_seq")
    spec = CampaignSpec(trojans=trojans, die_counts=(NUM_DIES,), seed=31)
    (cell,) = spec.grid()
    study = CampaignEngine(spec, golden=batch_platform.golden
                           ).population_study(cell)
    golden_serial, infected_serial = (
        acquire_population_traces_serial(batch_platform, trojans)
    )
    metric = LocalMaximaSumMetric()
    reference = np.mean([trace.samples for trace in golden_serial], axis=0)
    assert np.array_equal(study.reference.mean, reference)
    genuine_scores = scores_serial(metric, golden_serial, reference)
    for name in trojans:
        infected_scores = scores_serial(metric, infected_serial[name],
                                        reference)
        mu = fit_gaussian(infected_scores).mean \
            - fit_gaussian(genuine_scores).mean
        sigma = pooled_std(genuine_scores, infected_scores)
        char = study.characterisations[name]
        assert char.mu == float(mu)
        assert char.sigma == float(sigma)
        assert char.false_negative_rate == false_negative_rate(mu, sigma)
    # The report-boundary EMTrace objects carry the serial samples.
    study_golden, _ = study.tensors.to_traces()
    for study_trace, serial_trace in zip(study_golden, golden_serial):
        assert np.array_equal(study_trace.samples, serial_trace.samples)
        assert study_trace.label == serial_trace.label
