"""Determinism: same seed => byte-identical traces and campaign results.

The whole reproduction is seeded — two fresh platforms with the same
``CampaignSpec.seed`` must produce *bit-identical* traces and
measurements, including through the batched acquisition paths and the
campaign engine's process pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaigns import AcquisitionVariant, CampaignEngine, CampaignSpec
from repro.core.pipeline import HTDetectionPlatform
from repro.measurement import em_simulator
from repro.measurement.delay_meter import generate_pk_pairs

TROJANS = ("HT1", "HT3")


def _fresh_platform(num_dies: int = 4, seed: int = 77) -> HTDetectionPlatform:
    return HTDetectionPlatform(CampaignSpec(
        die_counts=(num_dies,), seed=seed, delay_repetitions=3))


def test_same_seed_byte_identical_population_traces():
    tensors_a = _fresh_platform().acquire_population_tensors(TROJANS)
    tensors_b = _fresh_platform().acquire_population_tensors(TROJANS)
    assert tensors_a.golden.tobytes() == tensors_b.golden.tobytes()
    for name in TROJANS:
        assert tensors_a.infected[name].tobytes() == \
            tensors_b.infected[name].tobytes()


def _fresh_population_study():
    spec = CampaignSpec(trojans=TROJANS, die_counts=(4,), seed=77)
    (cell,) = spec.grid()
    return CampaignEngine(spec).population_study(cell)


def test_same_seed_identical_population_study():
    study_a = _fresh_population_study()
    study_b = _fresh_population_study()
    assert study_a.false_negative_rates() == study_b.false_negative_rates()
    for name in TROJANS:
        assert study_a.characterisations[name].mu == \
            study_b.characterisations[name].mu
        assert study_a.characterisations[name].sigma == \
            study_b.characterisations[name].sigma


def test_same_seed_byte_identical_delay_measurements():
    pairs = generate_pk_pairs(2, seed=3)

    def run(platform):
        dut = platform.infected_dut("HT_comb", 1)
        return platform.delay_meter.measure(dut, pairs, seed=9)

    measurement_a = run(_fresh_platform())
    measurement_b = run(_fresh_platform())
    assert measurement_a.steps_matrix().tobytes() == \
        measurement_b.steps_matrix().tobytes()


def test_batch_paths_are_deterministic_too():
    """The vectorised EM path must inherit the seed determinism."""
    platform_a = _fresh_platform()
    platform_b = _fresh_platform()
    plaintext, key = bytes(range(16)), bytes(16)

    def batch(platform):
        rngs = [np.random.default_rng(5 + die) for die in range(4)]
        duts = [platform.infected_dut("HT3", die) for die in range(4)]
        matrix, _ = platform.em_simulator.acquire_batch_matrix(
            duts, plaintext, key, rngs, new_setup_installation=True
        )
        return matrix

    assert batch(platform_a).tobytes() == batch(platform_b).tobytes()


@pytest.fixture(scope="module")
def campaign_spec():
    return CampaignSpec(
        name="determinism",
        trojans=TROJANS,
        die_counts=(3, 4),
        variants=(
            AcquisitionVariant.make("paper"),
            AcquisitionVariant.make("fast-scope",
                                    {"oscilloscope.num_averages": 100}),
        ),
        metrics=("local_maxima_sum",),
        seed=123,
    )


def _row_dicts(result):
    return [row.to_dict() for row in result.rows()]


def test_campaign_engine_deterministic(campaign_spec):
    result_a = CampaignEngine(campaign_spec).run()
    result_b = CampaignEngine(campaign_spec).run()
    assert _row_dicts(result_a) == _row_dicts(result_b)


@pytest.mark.parametrize("fill", ["serial", "threaded"])
def test_campaign_parallel_matches_serial(campaign_spec, fill, monkeypatch):
    """Process-pool rows equal inline ones, on either EM fill path.

    ``threaded`` patches the acquisition's thread floor to 0 (and
    assumes two cores) before both runs, so the inline run and the
    forked ``workers=2`` run, which inherits the patch, both fill their
    grids on threads; both must reproduce an unpatched serial run.
    """
    serial = _row_dicts(CampaignEngine(campaign_spec).run())
    if fill == "threaded":
        monkeypatch.setattr(em_simulator, "_THREADED_GRID_FLOOR", 0)
        monkeypatch.setattr(em_simulator, "_available_cores", lambda: 2)
        assert _row_dicts(CampaignEngine(campaign_spec).run()) == serial
    parallel_spec = CampaignSpec.from_dict(
        {**campaign_spec.to_dict(), "workers": 2}
    )
    parallel = CampaignEngine(parallel_spec).run()
    assert _row_dicts(parallel) == serial


def test_sharded_process_pool_matches_serial(campaign_spec, tmp_path):
    """Shards run over process pools merge to the serial unsharded rows.

    The strongest composition of the engine's execution modes: each
    shard spreads its cells over its own process pool and writes through
    a shared artifact store; the merged result must still be
    row-for-row identical to one serial in-memory run.
    """
    from repro.campaigns import merge_campaign_results

    serial = CampaignEngine(campaign_spec).run()
    parallel_spec = CampaignSpec.from_dict(
        {**campaign_spec.to_dict(), "workers": 2}
    )
    store = tmp_path / "store"
    shards = [
        CampaignEngine(parallel_spec, store=store).run(shard=(index, 2))
        for index in range(2)
    ]
    merged = merge_campaign_results(shards)
    assert _row_dicts(merged) == _row_dicts(serial)

    # And a warm store-backed rerun (serial workers) reproduces the
    # pool-computed rows bit-for-bit.
    warm = CampaignEngine(campaign_spec, store=store).run()
    assert _row_dicts(warm) == _row_dicts(serial)
