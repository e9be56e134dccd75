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


def test_engine_runs_every_cell_on_one_platform(small_campaign,
                                                golden_design):
    engine, _ = small_campaign
    platform = engine.platform
    assert engine.platform is platform
    assert platform.golden is golden_design
    assert len(platform.population) == max(engine.spec.die_counts)
    # one insertion per trojan for the whole grid
    assert set(platform._infected) == {"HT1", "HT3"}


def test_a_cell_uses_the_first_dies_of_the_platform(golden_design):
    """A cell of N dies in a grid with a larger die count scores the
    same population, row for row, as a grid of N dies alone."""
    def rows(die_counts, metrics):
        spec = CampaignSpec(name="prefix", trojans=("HT1",),
                            die_counts=die_counts, metrics=metrics,
                            seed=6, num_pk_pairs=2, delay_repetitions=1)
        result = CampaignEngine(spec, golden=golden_design).run()
        return [row.to_dict() for row in result.rows()
                if row.num_dies == 2]

    metrics = ("l1", "delay_max_difference")
    assert rows((2, 3), metrics) == rows((2,), metrics)


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


@pytest.mark.parametrize("num_plaintexts", [1, 2])
def test_smaller_population_is_the_prefix_of_a_larger_one(golden_design,
                                                          num_plaintexts):
    """Each die has its own noise stream and every acquisition step works
    per die, so N dies are exactly the first N rows of a larger
    population, bit for bit."""
    from repro.core.pipeline import HTDetectionPlatform

    spec = CampaignSpec(die_counts=(5,), seed=31,
                        num_plaintexts=num_plaintexts)
    platform = HTDetectionPlatform(spec, golden=golden_design)
    plaintexts = spec.stimulus_plaintexts()
    large = platform.acquire_population_tensors(("HT1",), plaintexts,
                                                num_dies=5)
    small = platform.acquire_population_tensors(("HT1",), plaintexts,
                                                num_dies=3)
    prefix = large.first_dies(3)
    assert small.golden.tobytes() == prefix.golden.tobytes()
    assert small.infected["HT1"].tobytes() == \
        prefix.infected["HT1"].tobytes()
    assert small.golden_labels == prefix.golden_labels
    assert small.infected_labels == prefix.infected_labels
    assert small.cycle_sample_offsets == prefix.cycle_sample_offsets


def test_engine_slices_smaller_die_counts_from_the_largest(monkeypatch,
                                                          tmp_path,
                                                          golden_design):
    """Cells run largest die count first, the smaller population is
    sliced from the larger one, and what is stored for it is the same
    object a run of the smaller die count alone stores."""
    import dataclasses

    from repro.measurement.em_simulator import EMSimulator

    acquisitions = _count_calls(monkeypatch, EMSimulator,
                                "acquire_many_batch_tensor")
    executed = []
    original_run_cell = CampaignEngine.run_cell

    def run_cell(engine, cell):
        executed.append((cell.num_dies, cell.metric))
        return original_run_cell(engine, cell)

    monkeypatch.setattr(CampaignEngine, "run_cell", run_cell)
    spec = CampaignSpec(name="prefix", trojans=("HT1",), die_counts=(3, 5),
                        metrics=("l1", "max_difference"), num_plaintexts=2,
                        seed=13)
    both = CampaignEngine(spec, golden=golden_design,
                          store=tmp_path / "both").run()
    assert executed == [(5, "l1"), (5, "max_difference"),
                        (3, "l1"), (3, "max_difference")]
    # One population of 5 dies: golden + HT1, acquired once each.
    assert [len(args[1]) for args in acquisitions] == [5, 5]
    assert [cell.num_dies for cell in both.cells] == [3, 3, 5, 5]

    alone_engine = CampaignEngine(
        dataclasses.replace(spec, die_counts=(3,)), golden=golden_design,
        store=tmp_path / "alone")
    alone = alone_engine.run()
    assert [(cell.golden_score_mean, cell.golden_score_std, cell.to_dict()
             ["rows"]) for cell in alone.cells] == \
        [(cell.golden_score_mean, cell.golden_score_std, cell.to_dict()
          ["rows"]) for cell in both.cells[:2]]
    stored = {key: entry for key, entry
              in alone_engine.store.index().items()
              if entry.kind == "population_traces"}
    assert len(stored) == 1
    both_index = CampaignEngine(spec, store=tmp_path / "both").store.index()
    for key, entry in stored.items():
        assert both_index[key].digest == entry.digest


def test_warm_rescore_reads_only_the_largest_population(monkeypatch,
                                                        tmp_path,
                                                        golden_design):
    """A rescore with one more metric reads the largest population from
    the store once and slices the smaller one from it in memory."""
    import dataclasses

    from repro.store import ArtifactStore

    spec = CampaignSpec(name="rescore", trojans=("HT1",), die_counts=(3, 5),
                        metrics=("l1",), num_plaintexts=2, seed=13)
    CampaignEngine(spec, golden=golden_design, store=tmp_path / "s").run()
    wider = dataclasses.replace(spec, metrics=("l1", "max_difference"))
    reads = _count_calls(monkeypatch, ArtifactStore, "get_arrays")
    rescored = CampaignEngine(wider, golden=golden_design,
                              store=tmp_path / "s").run()
    assert rescored.resumed == 2
    assert len(reads) == 1
    fresh = CampaignEngine(wider, golden=golden_design).run()
    assert [row.to_dict() for row in rescored.rows()] == \
        [row.to_dict() for row in fresh.rows()]


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
    from repro.core.pipeline import HTDetectionPlatform

    engine, result = small_campaign
    platform = HTDetectionPlatform(CampaignSpec(die_counts=(3,), seed=55),
                                   golden=golden_design)
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


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_archive_owner_still_leaves_the_archive(monkeypatch, tmp_path,
                                                       golden_design,
                                                       workers):
    """Cell 0 owns its acquisition key's trace archive and fails every
    attempt; cell 1 of the same key succeeds, so the run writes the
    archive cell 1 names, from the stored population."""
    from chaos import FaultInjection, FaultKind, FaultPlan, supervise

    spec = CampaignSpec(name="owner-fails", trojans=("HT1",), die_counts=(2,),
                        metrics=("l1", "local_maxima_sum"), seed=9,
                        save_traces=True, max_retries=0, workers=workers)
    if workers == 1:
        original_run_cell = CampaignEngine.run_cell

        def run_cell(engine, cell):
            if cell.index == 0:
                raise RuntimeError("cell 0 failed")
            return original_run_cell(engine, cell)

        monkeypatch.setattr(CampaignEngine, "run_cell", run_cell)
    else:
        supervise(monkeypatch, FaultPlan([FaultInjection(0, 1,
                                                         FaultKind.CRASH)]))
    result = CampaignEngine(spec, golden=golden_design,
                            store=tmp_path / "store").run(
        artifact_dir=tmp_path / "out")
    failed, scored = result.cells
    assert failed.status == "failed" and failed.trace_archive is None
    assert scored.status == "ok"
    traces = load_traces(scored.trace_archive)
    assert len(traces) == 4


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
    # Per die count, largest first: the golden fingerprint, then every
    # (clean, infected) device in one batch.
    assert [len(args[1]) for args in batches] == [1, 3 * 3, 1, 2 * 3]
    data = engine.delay_study_data(spec.grid()[-1])
    assert len(batches) == 4
    assert len(data.golden_differences) == 3
    assert set(data.infected_differences) == {"HT_comb", "HT_seq"}


def test_engine_builds_each_delay_annotation_once(monkeypatch, golden_design,
                                                  tmp_path):
    """An 8+16-die, three-trojan delay/fault campaign probes 16 dies x 4
    designs, so it builds 64 delay annotations, although the delay and
    fault cells and both die counts make their own devices (194 builds,
    one per device, when no DUT shares).  Sharing the annotations leaves
    the summary byte-identical."""
    from repro.measurement import dut

    def unshared(self):
        post_init(self)
        self.annotation_cache = None

    post_init = dut.DeviceUnderTest.__post_init__

    spec = CampaignSpec(
        name="annotations", trojans=("HT1", "HT2", "HT3"),
        die_counts=(8, 16), metrics=("delay_max_difference",
                                     "fault_coverage"),
        seed=0, num_pk_pairs=2, delay_repetitions=1, num_plaintexts=2,
    )

    def builds(directory, shared):
        calls = _count_calls(monkeypatch, dut, "build_delay_annotation")
        if not shared:
            monkeypatch.setattr(dut.DeviceUnderTest, "__post_init__",
                                unshared)
        CampaignEngine(spec, golden=golden_design).run(
            artifact_dir=directory)
        monkeypatch.undo()
        return len(calls)

    assert builds(tmp_path / "per-device", shared=False) == 194
    assert builds(tmp_path / "shared", shared=True) == 64
    assert ((tmp_path / "shared" / "annotations.csv").read_bytes()
            == (tmp_path / "per-device" / "annotations.csv").read_bytes())


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
    assert loaded.grid()[0].artifact == "delay_differences"


@pytest.mark.parametrize("field, values", [
    ("kernel_backend", ("bitslice", "numpy", "vulkan")),
    ("retry_backoff_s", (0.5, 0.01, 0.0, -1.0)),
], ids=["kernel_backend", "retry_backoff_s"])
def test_legacy_kernel_backend_field_is_accepted_and_dropped(field, values):
    """Specs saved while the netlist kernel had a selectable backend
    carry ``kernel_backend``, and specs saved while the retry backoff
    base was a spec field carry ``retry_backoff_s``; any value loads, is
    dropped from ``to_dict``, and leaves the store content fragment
    unchanged."""
    from repro.store import spec_content_fragment

    spec = CampaignSpec(name="legacy", trojans=("HT1",), die_counts=(2,),
                        metrics=("local_maxima_sum",
                                 "delay_max_difference"),
                        seed=11, num_pk_pairs=2, delay_repetitions=2)
    for value in values:
        legacy = CampaignSpec.from_dict({**spec.to_dict(), field: value})
        assert field not in legacy.to_dict()
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
    delay_cells = [cell for cell in cells
                   if cell.artifact == "delay_differences"]
    assert [cell.variant.name for cell in delay_cells] == ["paper", "paper"]
    assert sorted(cell.num_dies for cell in delay_cells) == [2, 3]
    assert [cell.index for cell in cells] == list(range(6))


def test_every_metric_has_one_scorer_of_its_artifact_kind():
    """The spec's metric table and the engine's scorers name the same
    metrics per artifact kind, so a metric added in one place only
    fails here instead of being scored as another kind."""
    from repro.campaigns.engine import (
        DELAY_METRIC_BATCH_SCORERS,
        METRIC_FACTORIES,
    )
    from repro.campaigns.spec import METRIC_ARTIFACTS

    by_kind: dict = {}
    for metric, kind in METRIC_ARTIFACTS.items():
        by_kind.setdefault(kind, set()).add(metric)
    assert by_kind == {
        "population_traces": set(METRIC_FACTORIES),
        "delay_differences": set(DELAY_METRIC_BATCH_SCORERS),
        "fault_sweep": {"fault_coverage"},
    }
