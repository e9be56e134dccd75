"""Unit tests for the campaign spec and engine."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaigns import (
    AcquisitionVariant,
    CampaignEngine,
    CampaignSpec,
    apply_em_overrides,
    build_metric,
    run_campaign,
)
from repro.core.metrics import L1TraceMetric, LocalMaximaSumMetric
from repro.io.results import load_result
from repro.io.tracefile import load_traces
from repro.measurement.em_simulator import EMAcquisitionConfig


# -- spec ----------------------------------------------------------------------

def test_spec_grid_expansion_order():
    spec = CampaignSpec(
        name="grid", trojans=("HT1",), die_counts=(2, 4),
        variants=(AcquisitionVariant.make("a"), AcquisitionVariant.make("b")),
        metrics=("local_maxima_sum", "l1"),
    )
    cells = spec.grid()
    assert len(cells) == spec.num_cells() == 8
    assert [cell.index for cell in cells] == list(range(8))
    assert cells[0].num_dies == 2 and cells[0].variant.name == "a"
    assert cells[-1].num_dies == 4 and cells[-1].variant.name == "b"
    assert cells[0].metric == "local_maxima_sum"
    assert cells[1].metric == "l1"
    assert cells[0].acquisition_key == cells[1].acquisition_key


def test_spec_round_trips_through_json(tmp_path):
    spec = CampaignSpec(
        name="roundtrip", trojans=("HT2", "HT3"), die_counts=(4,),
        variants=(AcquisitionVariant.make(
            "quiet", {"noise.sigma_single_shot": 100.0}),),
        metrics=("l1",), seed=7, workers=2, save_traces=True,
    )
    path = spec.save(tmp_path / "spec.json")
    loaded = CampaignSpec.load(path)
    assert loaded == spec
    # the stored document is plain JSON (hand-editable)
    payload = json.loads(path.read_text())
    assert payload["trojans"] == ["HT2", "HT3"]
    assert payload["variants"][0]["em_overrides"] == {
        "noise.sigma_single_shot": 100.0
    }


@pytest.mark.parametrize("bad_kwargs", [
    {"trojans": ()},
    {"trojans": ("HT_unknown",)},
    {"die_counts": (1,)},
    {"metrics": ("not_a_metric",)},
    {"workers": 0},
    {"plaintext": b"short"},
    {"trojans": ("HT1", "HT2", "HT1")},
    {"die_counts": (4, 4)},
    {"metrics": ("l1", "local_maxima_sum", "l1")},
])
def test_spec_rejects_invalid_configurations(bad_kwargs):
    with pytest.raises(ValueError):
        CampaignSpec(**bad_kwargs)


def test_apply_em_overrides_nested_and_flat():
    config = apply_em_overrides(
        EMAcquisitionConfig(),
        {"clock_frequency_mhz": 48.0,
         "noise.sigma_single_shot": 123.0,
         "oscilloscope.num_averages": 10},
    )
    assert config.clock_frequency_mhz == 48.0
    assert config.noise.sigma_single_shot == 123.0
    assert config.oscilloscope.num_averages == 10
    # the original default object is untouched
    assert EMAcquisitionConfig().noise.sigma_single_shot != 123.0


def test_apply_em_overrides_rejects_unknown_paths():
    with pytest.raises(ValueError):
        apply_em_overrides(EMAcquisitionConfig(), {"no_such_field": 1.0})
    with pytest.raises(ValueError):
        apply_em_overrides(EMAcquisitionConfig(), {"noise.no_such": 1.0})


def test_build_metric_registry():
    assert isinstance(build_metric("local_maxima_sum"), LocalMaximaSumMetric)
    assert isinstance(build_metric("l1"), L1TraceMetric)
    with pytest.raises(KeyError):
        build_metric("nope")


# -- engine --------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_campaign(golden_design):
    spec = CampaignSpec(
        name="unit", trojans=("HT1", "HT3"), die_counts=(3,),
        variants=(AcquisitionVariant.make("paper"),
                  AcquisitionVariant.make(
                      "quiet", {"noise.sigma_single_shot": 200.0})),
        metrics=("local_maxima_sum", "l1"), seed=55,
    )
    engine = CampaignEngine(spec, golden=golden_design)
    return engine, engine.run()


def test_engine_runs_every_cell(small_campaign):
    engine, result = small_campaign
    assert len(result.cells) == engine.spec.num_cells() == 4
    assert [cell.index for cell in result.cells] == [0, 1, 2, 3]
    for cell in result.cells:
        assert set(cell.false_negative_rates()) == {"HT1", "HT3"}
        for row in cell.rows:
            assert 0.0 <= row.false_negative_rate <= 1.0
            assert row.detection_probability == pytest.approx(
                1.0 - row.false_negative_rate
            )


def test_engine_shares_infected_designs_and_acquisitions(small_campaign):
    engine, _ = small_campaign
    # one insertion per trojan for the whole grid
    assert set(engine._infected_cache) == {"HT1", "HT3"}
    for cell in engine._platform_cache.values():
        assert cell.golden is engine.golden


def _count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every ``owner.name`` call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_engine_acquires_each_population_once(monkeypatch, golden_design):
    """One acquisition per (acquisition key, design), shared by every
    metric; without a store or trace archives no EMTrace is ever built."""
    from repro.core.pipeline import PopulationTraceTensors
    from repro.measurement.em_simulator import EMSimulator

    acquisitions = _count_calls(monkeypatch, EMSimulator,
                                "acquire_many_batch_tensor")
    wraps = _count_calls(monkeypatch, PopulationTraceTensors, "to_traces")
    spec = CampaignSpec(
        name="acquire-once", trojans=("HT1", "HT3"), die_counts=(2,),
        variants=(AcquisitionVariant.make("paper"),
                  AcquisitionVariant.make(
                      "quiet", {"noise.sigma_single_shot": 200.0})),
        metrics=("local_maxima_sum", "l1", "max_difference"), seed=55,
    )
    result = CampaignEngine(spec, golden=golden_design).run()
    assert len(result.cells) == 6
    # 2 acquisition keys x (golden + 2 trojans) design populations.
    assert len(acquisitions) == 2 * 3
    assert wraps == []


def test_engine_builds_no_traces_for_the_store_write(monkeypatch, tmp_path,
                                                     golden_design):
    """The population store payload is written from, and read into, the
    matrices: no EMTrace is built on a cold or a warm store-backed run."""
    from repro.core.pipeline import PopulationTraceTensors
    from repro.measurement.em_simulator import EMTrace

    wraps = _count_calls(monkeypatch, PopulationTraceTensors, "to_traces")
    built = _count_calls(monkeypatch, EMTrace, "__init__")
    spec = CampaignSpec(name="store-wrap", trojans=("HT1",),
                        die_counts=(2,), metrics=("l1", "max_difference"),
                        seed=5)
    cold = CampaignEngine(spec, golden=golden_design,
                          store=tmp_path / "store").run()
    assert wraps == [] and built == []
    # A second engine on the same store loads the stored population
    # instead of acquiring it; its cells resume outright.
    warm = CampaignEngine(spec, golden=golden_design,
                          store=tmp_path / "store")
    cell = spec.grid()[0]
    golden_matrix, infected = warm.cell_trace_matrices(cell)
    cold_engine = CampaignEngine(spec, golden=golden_design)
    fresh_golden, fresh_infected = cold_engine.cell_trace_matrices(cell)
    assert golden_matrix.tobytes() == fresh_golden.tobytes()
    assert infected["HT1"].tobytes() == fresh_infected["HT1"].tobytes()
    assert [row.to_dict() for row in warm.run().rows()] == \
        [row.to_dict() for row in cold.rows()]
    assert wraps == [] and built == []


def test_larger_trojan_detected_more_reliably(small_campaign):
    _, result = small_campaign
    for cell in result.cells:
        rates = cell.false_negative_rates()
        assert rates["HT3"] <= rates["HT1"] + 1e-9


def test_engine_matches_platform_study(small_campaign, golden_design):
    """Acceptance: the engine cell equals a standalone platform's
    population scored by the Sec. V detector."""
    from repro.core.em_detector import PopulationEMDetector
    from repro.core.pipeline import HTDetectionPlatform, PlatformConfig

    engine, result = small_campaign
    platform = HTDetectionPlatform(
        config=PlatformConfig(num_dies=3, seed=55), golden=golden_design
    )
    tensors = platform.acquire_population_tensors(("HT1", "HT3"))
    _, characterisations = PopulationEMDetector().fit_and_characterise(
        tensors.golden, tensors.infected)
    cell = result.cells[0]  # paper variant, local_maxima_sum
    for name, char in characterisations.items():
        assert cell.false_negative_rates()[name] == pytest.approx(
            char.false_negative_rate, abs=1e-12
        )


def test_parallel_workers_use_the_engine_golden_design(golden_design):
    """A custom golden design must reach the pool workers unchanged."""
    spec = CampaignSpec(name="custom", trojans=("HT1",), die_counts=(3, 4),
                        metrics=("l1",), seed=4)
    serial = CampaignEngine(spec, golden=golden_design).run()
    parallel_spec = CampaignSpec.from_dict({**spec.to_dict(), "workers": 2})
    parallel = CampaignEngine(parallel_spec, golden=golden_design).run()
    assert [row.to_dict() for row in serial.rows()] == \
        [row.to_dict() for row in parallel.rows()]


def test_save_traces_without_artifact_dir_fails_loudly(golden_design):
    spec = CampaignSpec(name="loud", trojans=("HT1",), die_counts=(2,),
                        save_traces=True)
    with pytest.raises(ValueError, match="artifact_dir"):
        CampaignEngine(spec, golden=golden_design).run()


def test_run_campaign_persists_summary_and_traces(tmp_path, golden_design):
    spec = CampaignSpec(name="persist", trojans=("HT1",), die_counts=(2,),
                        metrics=("l1",), seed=9, save_traces=True)
    engine = CampaignEngine(spec, golden=golden_design)
    result = engine.run(artifact_dir=tmp_path)
    summary = load_result(tmp_path / "persist.json")
    assert summary["spec"]["name"] == "persist"
    assert len(summary["cells"]) == 1
    assert summary["cells"][0]["rows"][0]["trojan"] == "HT1"
    assert (tmp_path / "persist.csv").exists()
    archive = summary["cells"][0]["trace_archive"]
    traces = load_traces(archive)
    # 2 golden + 2 infected traces
    assert len(traces) == 4
    assert all(np.isfinite(trace.samples).all() for trace in traces)


# -- delay-study cells ---------------------------------------------------------

@pytest.fixture(scope="module")
def delay_campaign(golden_design):
    spec = CampaignSpec(
        name="delay", trojans=("HT_comb", "HT_seq"), die_counts=(3,),
        metrics=("delay_max_difference", "delay_mean_pair_max"),
        seed=19, num_pk_pairs=2, delay_repetitions=2,
    )
    engine = CampaignEngine(spec, golden=golden_design)
    return engine, engine.run()


def test_delay_cells_execute_end_to_end(delay_campaign):
    engine, result = delay_campaign
    assert len(result.cells) == 2
    for cell in result.cells:
        assert cell.metric.startswith("delay_")
        assert cell.trace_archive is None  # no EM traces acquired
        assert set(cell.false_negative_rates()) == {"HT_comb", "HT_seq"}
        for row in cell.rows:
            assert 0.0 <= row.false_negative_rate <= 1.0
            assert row.detection_probability == pytest.approx(
                1.0 - row.false_negative_rate
            )
            assert row.sigma >= 0.0


def test_delay_cells_share_one_measurement(monkeypatch, golden_design):
    """Cells differing only in metric re-score one delay measurement
    per die count."""
    from repro.measurement.delay_meter import PathDelayMeter

    batches = _count_calls(monkeypatch, PathDelayMeter, "measure_batch")
    spec = CampaignSpec(
        name="delay-shared", trojans=("HT_comb", "HT_seq"),
        die_counts=(2, 3),
        metrics=("delay_max_difference", "delay_mean_pair_max"),
        seed=19, num_pk_pairs=2, delay_repetitions=2,
    )
    engine = CampaignEngine(spec, golden=golden_design)
    result = engine.run()
    assert len(result.cells) == 4
    # Per die count: the golden fingerprint, then every (clean,
    # infected) device in one batch.
    assert [len(args[1]) for args in batches] == [1, 2 * 3, 1, 3 * 3]
    data = engine.delay_study_data(spec.grid()[-1])
    assert len(batches) == 4
    assert len(data.golden_differences) == 3
    assert set(data.infected_differences) == {"HT_comb", "HT_seq"}


def test_delay_cell_detects_the_tapping_trojan(delay_campaign):
    """The datapath-tapping trojan must shift delays well past the clean
    noise floor (the paper's Sec. III headline)."""
    _, result = delay_campaign
    for cell in result.cells:
        comb_row = next(r for r in cell.rows if r.trojan == "HT_comb")
        assert comb_row.mu > 0.0
        assert comb_row.detection_probability > 0.9


def test_delay_spec_round_trips(tmp_path):
    spec = CampaignSpec(name="delay_rt", metrics=("delay_max_difference",),
                        num_pk_pairs=5, delay_repetitions=4)
    path = spec.save(tmp_path / "spec.json")
    loaded = CampaignSpec.load(path)
    assert loaded.num_pk_pairs == 5
    assert loaded.delay_repetitions == 4
    assert loaded.metrics == ("delay_max_difference",)
    assert loaded.grid()[0].is_delay


def test_legacy_kernel_backend_field_is_accepted_and_dropped():
    """Specs saved while the netlist kernel had a selectable backend
    carry ``kernel_backend``; any value loads, is dropped from
    ``to_dict``, and leaves the store content fragment unchanged."""
    from repro.store import spec_content_fragment

    spec = CampaignSpec(name="legacy", trojans=("HT1",), die_counts=(2,),
                        metrics=("local_maxima_sum",
                                 "delay_max_difference"),
                        seed=11, num_pk_pairs=2, delay_repetitions=2)
    for value in ("bitslice", "numpy", "vulkan"):
        legacy = CampaignSpec.from_dict(
            {**spec.to_dict(), "kernel_backend": value})
        assert "kernel_backend" not in legacy.to_dict()
        assert legacy.to_dict() == spec.to_dict()
        assert spec_content_fragment(legacy.to_dict()) == \
            spec_content_fragment(spec.to_dict())


def test_mixed_em_and_delay_grid(golden_design, tmp_path):
    """EM and delay metrics coexist in one grid; archives are owned by
    the EM cells only."""
    spec = CampaignSpec(
        name="mixed", trojans=("HT1",), die_counts=(2,),
        metrics=("delay_max_difference", "l1"), seed=3,
        num_pk_pairs=2, delay_repetitions=2, save_traces=True,
    )
    engine = CampaignEngine(spec, golden=golden_design)
    result = engine.run(artifact_dir=tmp_path)
    delay_cell, em_cell = result.cells
    assert delay_cell.metric == "delay_max_difference"
    assert delay_cell.trace_archive is None
    assert em_cell.trace_archive is not None
    assert len(load_traces(em_cell.trace_archive)) == 4


def test_delay_metrics_not_crossed_with_em_variants():
    """The clock-glitch bench ignores EM variants: one delay cell per
    die count, not one per (variant, die count)."""
    spec = CampaignSpec(
        name="collapse", trojans=("HT1",), die_counts=(2, 3),
        variants=(AcquisitionVariant.make("paper"),
                  AcquisitionVariant.make(
                      "quiet", {"noise.sigma_single_shot": 200.0})),
        metrics=("delay_max_difference", "l1"),
    )
    cells = spec.grid()
    assert spec.num_cells() == len(cells) == 6  # 2 dies x (2 EM + 1 delay)
    delay_cells = [cell for cell in cells if cell.is_delay]
    assert [cell.variant.name for cell in delay_cells] == ["paper", "paper"]
    assert sorted(cell.num_dies for cell in delay_cells) == [2, 3]
    assert [cell.index for cell in cells] == list(range(6))


def test_build_delay_scorer_rejects_unknown_names():
    from repro.campaigns.engine import build_delay_batch_scorer

    with pytest.raises(KeyError, match="delay_max_difference"):
        build_delay_batch_scorer("nope")
