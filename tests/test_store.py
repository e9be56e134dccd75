"""Tests for the content-addressed artifact store (`repro.store`)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest
from chaos import lose_object

from repro.campaigns import (
    AcquisitionVariant,
    CampaignEngine,
    CampaignResult,
    CampaignSpec,
)
from repro.campaigns.engine import _DelayStudyData
from repro.core.pipeline import PopulationTraceTensors
from repro.store import (
    ArtifactStore,
    build_store,
    canonical_json,
    pack_groups,
    stable_key,
    unpack_groups,
)
from repro.store.artifact_store import decode_array_bytes, encode_array_bytes


def _stored_round_trip(arrays):
    """``arrays`` through the store's npz encoding and back."""
    return decode_array_bytes(encode_array_bytes(arrays))


# -- keys ---------------------------------------------------------------------


def test_stable_key_is_order_independent_and_deterministic():
    key_a = stable_key({"b": 1, "a": [1, 2], "nested": {"y": 2.5, "x": None}})
    key_b = stable_key({"nested": {"x": None, "y": 2.5}, "a": [1, 2], "b": 1})
    assert key_a == key_b
    assert len(key_a) == 64 and set(key_a) <= set("0123456789abcdef")


#: Population-key fields of one acquisition point.
POPULATION_KEY_FIELDS = dict(em={"noise": 400.0}, seed=2015, num_dies=8,
                             trojans=("HT1", "HT2"), key=bytes(16),
                             plaintexts=[bytes(range(16))])


def _population_key(store_dir, golden=None, **fields):
    """The engine's population key of ``fields`` (built-in golden design
    unless ``golden`` is given)."""
    engine = CampaignEngine(CampaignSpec(), golden=golden, store=store_dir)
    return engine._store_key("population_traces", **fields)


def test_stable_key_same_spec_fragment_same_key(tmp_path):
    assert _population_key(tmp_path, **POPULATION_KEY_FIELDS) == \
        _population_key(tmp_path, **POPULATION_KEY_FIELDS)


@pytest.mark.parametrize("perturbation", [
    {"seed": 2016},
    {"num_dies": 9},
    {"trojans": ("HT1", "HT3")},
    {"em": {"noise": 401.0}},
    {"key": bytes(15) + b"\x01"},
    {"plaintexts": [bytes(16)]},
    {"golden": "custom"},
])
def test_stable_key_perturbed_spec_new_key(perturbation, tmp_path,
                                           golden_design):
    fields = dict(POPULATION_KEY_FIELDS, **perturbation)
    # A custom golden design enters the key as its content signature.
    golden = golden_design if fields.pop("golden", None) else None
    assert _population_key(tmp_path, **POPULATION_KEY_FIELDS) != \
        _population_key(tmp_path, golden, **fields)


def test_canonical_json_coerces_bytes_and_dataclasses():
    from repro.measurement.em_simulator import EMAcquisitionConfig

    text = canonical_json({"key": b"\x01\x02",
                           "config": EMAcquisitionConfig()})
    payload = json.loads(text)
    assert payload["key"] == "0102"
    assert payload["config"]["clock_frequency_mhz"] == 24.0


def test_cell_result_key_ignores_execution_only_fields(tmp_path):
    def cell_key(spec):
        engine = CampaignEngine(spec, store=tmp_path / "store")
        return engine._cell_key(spec.grid()[0])

    spec = CampaignSpec(name="a", trojans=("HT1",), die_counts=(2,))
    renamed = CampaignSpec(name="b", trojans=("HT1",), die_counts=(2,),
                           workers=4, save_traces=True, max_retries=5,
                           cell_timeout_s=9.0)
    assert cell_key(spec) == cell_key(renamed)
    reseeded = CampaignSpec(name="a", trojans=("HT1",), die_counts=(2,),
                            seed=1)
    assert cell_key(spec) != cell_key(reseeded)


#: A spec with one cell of each kind on 8 dies; its glitch axes are set
#: so each axis can change on its own.
_KEYED_SPEC = dict(
    trojans=("HT1",), die_counts=(8,),
    variants=(AcquisitionVariant.make(
        "paper", {"oscilloscope.num_averages": 200}),),
    metrics=("local_maxima_sum", "delay_max_difference", "fault_coverage"),
    glitch_offsets_ps=(200.0,), glitch_widths_ps=(300.0,),
    glitch_periods_ps=(4000.0,))

#: One spec change per entry, and whether it changes the artifact an
#: EM, a delay and a fault cell scores.
_SPEC_CHANGES = {
    "seed": ({"seed": 7}, (True, True, True)),
    "trojans": ({"trojans": ("HT1", "HT2")}, (True, True, True)),
    "key": ({"key": bytes(16)}, (True, False, True)),
    "plaintext": ({"plaintext": bytes(range(1, 17))}, (True, False, True)),
    "num_plaintexts": ({"num_plaintexts": 3}, (True, False, True)),
    "num_pk_pairs": ({"num_pk_pairs": 5}, (False, True, False)),
    "delay_repetitions": ({"delay_repetitions": 2}, (False, True, True)),
    "glitch_offsets_ps": ({"glitch_offsets_ps": (250.0,)},
                          (False, False, True)),
    "glitch_widths_ps": ({"glitch_widths_ps": (350.0,)},
                         (False, False, True)),
    "glitch_periods_ps": ({"glitch_periods_ps": (3900.0,)},
                          (False, False, True)),
    "em_overrides": ({"variants": (AcquisitionVariant.make(
        "paper", {"oscilloscope.num_averages": 300}),)},
        (True, False, False)),
    "variant_name": ({"variants": (AcquisitionVariant.make(
        "renamed", {"oscilloscope.num_averages": 200}),)},
        (False, False, False)),
    "added_variant": ({"variants": (
        AcquisitionVariant.make("paper", {"oscilloscope.num_averages": 200}),
        AcquisitionVariant.make("quiet",
                                {"noise.sigma_single_shot": 100.0}))},
        (False, False, False)),
    "name": ({"name": "renamed"}, (False, False, False)),
    "added_die_count": ({"die_counts": (8, 16)}, (False, False, False)),
    "reordered_die_counts": ({"die_counts": (16, 8)}, (False, False, False)),
    "added_metrics": ({"metrics": ("local_maxima_sum", "l1",
                                   "delay_max_difference",
                                   "delay_mean_pair_max", "fault_coverage")},
                      (False, False, False)),
    "reordered_metrics": ({"metrics": ("fault_coverage",
                                       "delay_max_difference",
                                       "local_maxima_sum")},
                          (False, False, False)),
    "execution_settings": ({"workers": 2, "save_traces": True,
                            "max_retries": 5, "cell_timeout_s": 9.0},
                           (False, False, False)),
}

_CELL_KINDS = {"em": "local_maxima_sum", "delay": "delay_max_difference",
               "fault": "fault_coverage"}


def _cell_and_artifact_keys(store_dir, metric, **changes):
    """The completion-record key of the 8-die, ``paper``-variant cell of
    ``metric`` and the store key of the artifact it scores."""
    spec = CampaignSpec(**dict(_KEYED_SPEC, **changes))
    engine = CampaignEngine(spec, store=store_dir)
    cell = next(cell for cell in spec.grid()
                if cell.num_dies == 8 and cell.metric == metric
                and cell.variant == spec.variants[0])
    kind, _, inputs = engine._artifact_inputs(cell)
    artifact_key = engine._store_key(
        kind, **engine._artifact_key_fields(cell, inputs))
    return engine._cell_key(cell), artifact_key


@pytest.mark.parametrize("kind", list(_CELL_KINDS))
@pytest.mark.parametrize("change", list(_SPEC_CHANGES))
def test_cell_key_follows_exactly_the_artifact_it_scores(tmp_path, change,
                                                         kind):
    """A completion record is keyed by what computes its cell: a spec
    change moves the record key exactly when it moves the key of the
    stored artifact the cell scores, so growing, reordering or renaming
    the grid, or changing a field the cell never reads, resumes it."""
    changes, moves = _SPEC_CHANGES[change]
    metric = _CELL_KINDS[kind]
    base_cell, base_artifact = _cell_and_artifact_keys(tmp_path, metric)
    cell, artifact = _cell_and_artifact_keys(tmp_path, metric, **changes)
    expected = moves[list(_CELL_KINDS).index(kind)]
    assert (artifact != base_artifact) is expected
    assert (cell != base_cell) is expected


@pytest.mark.parametrize("metrics", [
    ("local_maxima_sum", "l1"),
    ("local_maxima_sum", "max_difference"),
    ("delay_max_difference", "delay_mean_pair_max"),
], ids=["em-l1", "em-max_difference", "delay-delay_mean_pair_max"])
def test_cell_key_tells_the_metrics_of_one_artifact_apart(tmp_path, metrics):
    """Two metrics scoring one artifact share its key, not their record."""
    first, second = (_cell_and_artifact_keys(tmp_path, metric,
                                             metrics=metrics)
                     for metric in metrics)
    assert first[1] == second[1]
    assert first[0] != second[0]


# -- round trips --------------------------------------------------------------


def test_store_json_round_trip(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"payload": "json"})
    assert key not in store
    with pytest.raises(KeyError):
        store.get_json(key)
    entry = store.put_json(key, {"value": 1.5, "names": ["a", "b"]},
                           kind="summary", meta={"campaign": "x"})
    assert key in store
    assert store.get_json(key) == {"value": 1.5, "names": ["a", "b"]}
    assert entry.kind == "summary" and entry.meta == {"campaign": "x"}
    assert store.index()[key].filename.endswith(".json")


def test_store_array_round_trip_preserves_dtype(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"payload": "arrays"})
    arrays = {
        "f32": np.linspace(0, 1, 7, dtype=np.float32),
        "i64": np.arange(5, dtype=np.int64),
        "mat": np.random.default_rng(3).normal(size=(4, 6)),
    }
    store.put_arrays(key, arrays)
    loaded = store.get_arrays(key)
    assert set(loaded) == set(arrays)
    for name, value in arrays.items():
        assert loaded[name].dtype == value.dtype
        assert np.array_equal(loaded[name], value)


def test_group_codec_orders_members_and_inverts():
    shared = {"axes::x": np.arange(3.0), "plaintexts": np.zeros((2, 16))}
    golden = {"a": np.ones(2), "b": np.arange(2)}
    infected = {"HT3": {"a": np.full(2, 3.0), "b": np.arange(2) + 3},
                "HT1": {"a": np.full(2, 1.0), "b": np.arange(2) + 1}}
    arrays = pack_groups(shared, golden, infected)
    assert list(arrays) == ["groups", "axes::x", "plaintexts",
                            "golden::a", "golden::b",
                            "trojan::HT3::a", "trojan::HT3::b",
                            "trojan::HT1::a", "trojan::HT1::b"]
    assert list(arrays["groups"]) == ["golden", "HT3", "HT1"]
    shared_back, golden_back, infected_back = unpack_groups(
        _stored_round_trip(arrays))
    assert list(infected_back) == ["HT3", "HT1"]
    for original, loaded in [(shared, shared_back), (golden, golden_back),
                             (infected["HT3"], infected_back["HT3"]),
                             (infected["HT1"], infected_back["HT1"])]:
        assert list(loaded) == list(original)
        for name, value in original.items():
            assert loaded[name].dtype == value.dtype
            assert np.array_equal(loaded[name], value)


def test_population_trace_payload_round_trip():
    rng = np.random.default_rng(1)
    tensors = PopulationTraceTensors(
        golden=rng.normal(0, 100, (2, 64)),
        infected={"HT1": rng.normal(0, 100, (2, 64)),
                  "HT3": rng.normal(0, 100, (2, 64))},
        golden_labels=["golden0", "golden1"],
        infected_labels={"HT1": ["HT1_0", "HT1_1"],
                         "HT3": ["HT3_0", "HT3_1"]},
        plaintext=bytes(range(16)),
        sample_period_ns=0.2,
        cycle_sample_offsets=[4 * cycle + 1 for cycle in range(5)],
    )
    loaded = PopulationTraceTensors.from_arrays(
        _stored_round_trip(tensors.to_arrays()))
    assert list(loaded.infected) == ["HT1", "HT3"]
    for name in ("HT1", "HT3"):
        assert loaded.infected[name].tobytes() == \
            tensors.infected[name].tobytes()
    assert loaded.golden.tobytes() == tensors.golden.tobytes()
    assert loaded.golden.dtype == tensors.golden.dtype
    assert loaded.golden_labels == tensors.golden_labels
    assert loaded.infected_labels == tensors.infected_labels
    assert loaded.plaintext == tensors.plaintext
    assert loaded.sample_period_ns == tensors.sample_period_ns
    assert loaded.cycle_sample_offsets == tensors.cycle_sample_offsets


def test_delay_difference_payload_round_trip():
    rng = np.random.default_rng(8)
    data = _DelayStudyData(
        golden_differences=rng.normal(size=(2, 3, 8)),
        infected_differences={"HT_comb": rng.normal(size=(2, 3, 8))},
    )
    loaded = _DelayStudyData.from_arrays(_stored_round_trip(data.to_arrays()))
    assert np.array_equal(loaded.golden_differences, data.golden_differences)
    assert list(loaded.infected_differences) == ["HT_comb"]
    assert np.array_equal(loaded.infected_differences["HT_comb"],
                          data.infected_differences["HT_comb"])


def test_store_writes_pinned_bytes_in_the_directory_layout(tmp_path):
    """One on-disk format: each put lays down exactly one object under
    ``objects/`` and one entry under ``manifest/``, and the JSON bytes
    are pinned."""
    root = tmp_path / "store"
    store = ArtifactStore(root)
    jkey = stable_key({"format": "json"})
    akey = stable_key({"format": "arrays"})
    store.put_json(jkey, {"b": [1, 2.5, "x"], "a": {"nested": True}},
                   kind="probe", meta={"producer": "pin", "n": 3})
    store.put_arrays(akey, {"x": np.arange(6.0).reshape(2, 3),
                            "y": np.array([1, 2], dtype=np.int32)},
                     kind="probe_arrays", meta={"n": 2})
    layout = [f"objects/{jkey}.json", f"manifest/{jkey}.json",
              f"objects/{akey}.npz", f"manifest/{akey}.json"]
    assert sorted(path.relative_to(root).as_posix()
                  for directory in ("objects", "manifest")
                  for path in (root / directory).iterdir()) == sorted(layout)
    digests = {relative: hashlib.sha256(
        (root / relative).read_bytes()).hexdigest()
        for relative in layout[:2]}
    # Changing these changes every content digest a store ever recorded.
    assert digests == {
        f"objects/{jkey}.json":
            "d46e0fc8cbafd01f419583d70214ff9ec5eec291261e66f55f39cb89128fe682",
        f"manifest/{jkey}.json":
            "b99aa577ff41ac9f2b5ace0fe1d80d15ab8973b5ed89356888f5a96dc39caf9b",
    }


def test_build_store_round_trips_a_store(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"cfg": 1})
    store.put_json(key, {"v": 1})
    assert build_store(None) is None
    assert build_store(store) is store
    for path in (store.root, str(store.root)):
        rebuilt = build_store(path)
        assert type(rebuilt) is ArtifactStore
        assert rebuilt.load_json(key) == {"v": 1}
    with pytest.raises(ValueError):
        build_store({"kind": "local", "root": str(store.root)})


def test_store_path_that_is_not_a_directory_is_a_value_error(tmp_path):
    regular = tmp_path / "notadir"
    regular.write_text("")
    for path in (regular, regular / "sub"):
        with pytest.raises(ValueError, match=str(path)):
            build_store(str(path))
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "objects").write_text("")
    with pytest.raises(ValueError, match=str(blocked)):
        ArtifactStore(blocked)


def test_store_rejects_unsafe_keys_and_empty_payloads(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    for bad in ("", "../escape", "a/b", ".hidden"):
        with pytest.raises(ValueError):
            store.put_json(bad, {})
    with pytest.raises(ValueError):
        store.put_arrays(stable_key("x"), {})


# -- atomic writes ------------------------------------------------------------


def test_partial_temp_file_never_surfaces_as_hit(tmp_path):
    """A crash mid-write leaves only a temp file — which must stay a miss."""
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"crash": "simulated"})
    # Simulate a writer dying before os.replace: the payload bytes sit
    # in a temp file next to the final name.
    (store.objects_dir / f".{key}.npz.12345.tmp").write_bytes(b"partial")
    (store.manifest_dir / f".{key}.json.12345.tmp").write_bytes(b"{")
    assert key not in store
    assert key not in store.index()
    with pytest.raises(KeyError):
        store.get_arrays(key)
    # A completed write afterwards becomes a clean hit.
    store.put_arrays(key, {"x": np.arange(3)})
    assert np.array_equal(store.get_arrays(key)["x"], np.arange(3))


def test_store_io_leaves_no_temp_files(tmp_path):
    """Every write goes temp file then rename: after puts, overwrites
    and a lost object, only final names remain under the store root."""
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"layout": "json"})
    akey = stable_key({"layout": "arrays"})
    store.put_json(key, {"v": 1}, meta={"m": 2})
    store.put_json(key, {"v": 1}, meta={"m": 2})
    store.put_arrays(akey, {"x": np.arange(6.0)})
    assert store.entry(key).meta == {"m": 2}
    assert sorted(store.keys()) == sorted([key, akey])
    assert len(store) == 2
    assert store.load_json(stable_key({"layout": "missing"})) is None
    assert lose_object(store, key)
    assert store.load_json(key) is None
    names = [path.name for path in store.root.rglob("*") if path.is_file()
             and path.parent in (store.objects_dir, store.manifest_dir)]
    assert sorted(names) == sorted([f"{akey}.npz", f"{akey}.json"])
    assert not [path for path in store.root.rglob("*.tmp")]


def test_object_without_manifest_entry_is_a_miss(tmp_path):
    """Crash between object write and manifest record => recomputed."""
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"orphan": True})
    (store.objects_dir / f"{key}.json").write_text("{}")
    assert key not in store
    # And the converse: a manifest entry whose object vanished.
    key2 = stable_key({"dangling": True})
    store.put_json(key2, {"v": 1})
    (store.objects_dir / f"{key2}.json").unlink()
    assert key2 not in store
    assert key2 not in store.index()


def test_corrupt_manifest_entry_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"corrupt": True})
    store.put_json(key, {"v": 1})
    (store.manifest_dir / f"{key}.json").write_text("{not json")
    assert key not in store


# -- manifest-driven resume ---------------------------------------------------


@pytest.fixture(scope="module")
def resume_spec():
    return CampaignSpec(
        name="resume", trojans=("HT1", "HT3"), die_counts=(3,),
        metrics=("local_maxima_sum", "l1", "delay_max_difference"),
        num_pk_pairs=2, delay_repetitions=2, seed=11,
    )


def _counting_engine(spec, store, computed):
    engine = CampaignEngine(spec, store=store)
    original = engine.run_cell

    def tracked(cell):
        computed.append(cell.index)
        return original(cell)

    engine.run_cell = tracked
    return engine


def test_manifest_resume_after_interrupt(tmp_path, resume_spec):
    store_dir = tmp_path / "store"

    # Simulate an interrupted run: only shard 0/2 of the grid finished.
    first_computed = []
    partial = _counting_engine(resume_spec, store_dir, first_computed).run(
        shard=(0, 2)
    )
    assert first_computed == [cell.index
                              for cell in resume_spec.shard(0, 2)]

    # The resumed full run computes exactly the missing cells.
    resumed_computed = []
    full = _counting_engine(resume_spec, store_dir, resumed_computed).run()
    missing = [cell.index for cell in resume_spec.shard(1, 2)]
    assert resumed_computed == missing
    assert [cell.index for cell in full.cells] == \
        [cell.index for cell in resume_spec.grid()]

    # A second rerun is fully warm: nothing recomputed, identical rows.
    warm_computed = []
    warm = _counting_engine(resume_spec, store_dir, warm_computed).run()
    assert warm_computed == []
    assert [row.to_dict() for row in warm.rows()] == \
        [row.to_dict() for row in full.rows()]

    # The partial shard's rows reappear untouched in the resumed result.
    for cell in partial.cells:
        matching = next(c for c in full.cells if c.index == cell.index)
        assert [row.to_dict() for row in matching.rows] == \
            [row.to_dict() for row in cell.rows]


def test_cli_rerun_reports_every_cell_resumed(tmp_path, capsys):
    from repro.cli import main

    argv = ["campaign", "run", "--trojan", "HT1", "--dies", "3",
            "--plaintexts", "2", "--metric", "local_maxima_sum",
            "--metric", "l1", "--seed", "4",
            "--store", str(tmp_path / "store")]
    assert main(argv) == 0
    assert "(0 cell(s) resumed)" in capsys.readouterr().out
    assert main(argv) == 0
    assert "(2 cell(s) resumed)" in capsys.readouterr().out


@pytest.mark.parametrize("metrics, added", [
    (("local_maxima_sum", "l1"), "max_difference"),
    (("delay_max_difference", "fault_coverage"), "delay_mean_pair_max"),
], ids=["em", "delay_fault"])
def test_adding_a_metric_resumes_every_stored_cell(tmp_path, capsys,
                                                   metrics, added):
    """A completion record is keyed by what computes its cell (the
    artifact it scores and its metric), not by the whole spec and the
    grid index: adding a metric to a stored 8 + 16-die campaign resumes
    its four cells, and the result equals a cold run of the wider spec
    row for row."""
    from repro.cli import main

    def run(metric_names, store, out):
        argv = ["campaign", "run", "--trojan", "HT1", "--dies", "8",
                "--dies", "16", "--plaintexts", "2", "--pk-pairs", "2",
                "--delay-repetitions", "1", "--seed", "4",
                "--store", str(store), "--out", str(out)]
        for metric in metric_names:
            argv += ["--metric", metric]
        assert main(argv) == 0
        (summary,) = out.glob("*.json")
        rows = CampaignResult.from_dict(json.loads(summary.read_text())).rows()
        return capsys.readouterr().out, [row.to_dict() for row in rows]

    store = tmp_path / "store"
    output, _ = run(metrics, store, tmp_path / "cold")
    assert "(0 cell(s) resumed)" in output
    wider = (*metrics, added)
    output, resumed_rows = run(wider, store, tmp_path / "warm")
    assert "(4 cell(s) resumed)" in output
    _, cold_rows = run(wider, tmp_path / "fresh", tmp_path / "reference")
    assert len(cold_rows) == 6
    assert resumed_rows == cold_rows



def test_a_resumed_record_is_restamped_to_the_current_grid(tmp_path):
    """A record written at grid index 0 under variant ``paper`` resumes
    at index 1 under the renamed variant of a wider grid."""
    store = tmp_path / "store"
    spec = CampaignSpec(trojans=("HT1",), die_counts=(2,), metrics=("l1",),
                        seed=4)
    CampaignEngine(spec, store=store).run()
    wider = CampaignSpec(trojans=("HT1",), die_counts=(2,),
                         variants=(AcquisitionVariant.make("renamed"),),
                         metrics=("local_maxima_sum", "l1"), seed=4)
    engine = CampaignEngine(wider, store=store)
    first, second = wider.grid()
    assert engine.load_cell_result(first) is None
    resumed = engine.load_cell_result(second)
    assert (resumed.index, resumed.variant) == (1, "renamed")
    assert resumed.rows
    assert {(row.cell_index, row.variant) for row in resumed.rows} == \
        {(1, "renamed")}

def test_completion_records_hold_no_execution_facts(tmp_path):
    """A stored cell record holds what its key determines: the golden
    score moments and the rows without their grid position."""
    store = tmp_path / "store"
    spec = CampaignSpec(trojans=("HT1",), die_counts=(2,), metrics=("l1",),
                        seed=4)
    engine = CampaignEngine(spec, store=store)
    engine.run()
    (cell,) = spec.grid()
    record = ArtifactStore(store).get_json(engine._cell_key(cell))
    assert sorted(record) == ["golden_score_mean", "golden_score_std",
                              "rows"]
    assert record["rows"] and all(
        "cell_index" not in row and "variant" not in row
        for row in record["rows"])


def test_records_written_with_execution_facts_still_load(tmp_path):
    """Older stores kept a cell's whole ``campaign.json`` entry under its
    key, failed cells included: an ok record resumes, re-stamped to the
    current grid and without the old run's wall-clock time; a failed
    one is no record."""
    store = tmp_path / "store"
    spec = CampaignSpec(trojans=("HT1",), die_counts=(2,), metrics=("l1",),
                        seed=4)
    computed = CampaignEngine(spec).run().cells[0]
    engine = CampaignEngine(spec, store=store)
    (cell,) = spec.grid()
    legacy = dict(computed.to_dict(), index=7, variant="old",
                  elapsed_s=3.5, attempts=2, trace_archive="gone.npz")
    legacy["rows"] = [dict(row, cell_index=7, variant="old")
                      for row in legacy["rows"]]
    ArtifactStore(store).put_json(engine._cell_key(cell), legacy)
    resumed = engine.load_cell_result(cell)
    assert resumed.to_dict() == dict(computed.to_dict(), elapsed_s=0.0)

    failed = dict(legacy, status="failed", error="boom", rows=[])
    ArtifactStore(store).put_json(engine._cell_key(cell), failed)
    assert engine.load_cell_result(cell) is None


def test_campaign_json_keeps_the_execution_facts(tmp_path):
    """What the store record leaves out stays in the run's own summary:
    each ``campaign.json`` cell has its grid position, wall-clock time
    and attempt count."""
    spec = CampaignSpec(name="facts", trojans=("HT1",), die_counts=(2,),
                        metrics=("l1", "local_maxima_sum"), seed=4)
    engine = CampaignEngine(spec, store=tmp_path / "store")
    engine.run(artifact_dir=tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "facts.json").read_text())
    cells = summary["cells"]
    assert [cell["index"] for cell in cells] == [
        cell.index for cell in spec.grid()]
    assert all(cell["variant"] and cell["attempts"] == 1
               and cell["elapsed_s"] > 0 for cell in cells)
    assert all(row["cell_index"] == cell["index"]
               for cell in cells for row in cell["rows"])
    store = ArtifactStore(tmp_path / "store")
    for cell in spec.grid():
        record = store.get_json(engine._cell_key(cell))
        assert not {"index", "variant", "elapsed_s", "attempts"} & set(record)


def test_worker_count_does_not_change_stored_bytes(tmp_path):
    """A two-worker run stores the same bytes as a serial one: what a
    record holds does not depend on which process computed it."""
    def tree(root):
        return {path.relative_to(root).as_posix(): path.read_bytes()
                for directory in ("objects", "manifest")
                for path in sorted((root / directory).rglob("*"))
                if path.is_file()}

    spec = CampaignSpec(name="workers", trojans=("HT1",), die_counts=(2, 3),
                        num_plaintexts=2, metrics=("l1",), seed=4)
    trees = []
    for workers in (1, 2):
        root = tmp_path / f"store-{workers}"
        CampaignEngine(dataclasses.replace(spec, workers=workers),
                       store=root).run()
        trees.append(tree(root))
    assert trees[0] == trees[1]
    assert sum(name.startswith("manifest/") for name in trees[0]) >= 2


def test_resumed_run_still_writes_trace_archives(tmp_path):
    """Archive ownership falls to a cell that actually executes.

    With ``save_traces``, the lowest-index EM cell of an acquisition
    key owns the archive.  On a resumed run the original owner may
    resolve from the manifest and never execute — ownership must then
    fall to a pending cell, or the new artifact dir would reference an
    archive nobody wrote.
    """
    spec = CampaignSpec(name="archive", trojans=("HT1",), die_counts=(3,),
                        metrics=("local_maxima_sum", "l1"), seed=13,
                        save_traces=True)
    store_dir = tmp_path / "store"
    engine = CampaignEngine(spec, store=store_dir)
    cold = engine.run(artifact_dir=tmp_path / "out1")
    assert (tmp_path / "out1" / "traces_d3_paper.npz").exists()

    # Interrupted-run shape: the owner cell (index 0) completed, the
    # other metric cell did not.
    owner, follower = spec.grid()
    assert lose_object(engine.store, engine._cell_key(follower))

    resumed = CampaignEngine(spec, store=store_dir).run(
        artifact_dir=tmp_path / "out2"
    )
    archive = tmp_path / "out2" / "traces_d3_paper.npz"
    assert archive.exists(), (
        "the resumed run's only executing cell must take archive ownership"
    )
    assert resumed.cells[follower.index].trace_archive == str(archive)
    assert [row.to_dict() for row in resumed.rows()] == \
        [row.to_dict() for row in cold.rows()]


def test_a_fully_resumed_save_traces_run_writes_its_own_archive(
        tmp_path, capsys):
    """Every ``--save-traces`` run archives the populations it covers in
    its own ``--out``, also when every cell resumes: the archive is
    read back through the store, byte-identical to the cold run's, and
    ``trace_archive`` names it."""
    from repro.cli import main

    def run(out):
        assert main(["campaign", "run", "--trojan", "HT1", "--dies", "3",
                     "--plaintexts", "2", "--metric", "l1", "--save-traces",
                     "--store", str(tmp_path / "store"),
                     "--out", str(out)]) == 0
        return capsys.readouterr().out

    run(tmp_path / "A")
    assert "(1 cell(s) resumed)" in run(tmp_path / "B")
    archive = tmp_path / "B" / "traces_d3_paper.npz"
    assert archive.read_bytes() == \
        (tmp_path / "A" / "traces_d3_paper.npz").read_bytes()
    summary = json.loads((tmp_path / "B" / "campaign.json").read_text())
    assert [cell["trace_archive"] for cell in summary["cells"]] == \
        [str(archive)]


def test_deleting_one_completion_recomputes_only_that_cell(tmp_path,
                                                           resume_spec):
    store_dir = tmp_path / "store"
    engine = CampaignEngine(resume_spec, store=store_dir)
    baseline = engine.run()

    victim = resume_spec.grid()[1]
    store_key = engine._cell_key(victim)
    assert lose_object(engine.store, store_key)

    recomputed = []
    rerun = _counting_engine(resume_spec, store_dir, recomputed).run()
    assert recomputed == [victim.index]
    assert [row.to_dict() for row in rerun.rows()] == \
        [row.to_dict() for row in baseline.rows()]


# -- sharing results between hosts --------------------------------------------


SHARE_SPEC = CampaignSpec(name="share", trojans=("HT1",), die_counts=(3,),
                          num_plaintexts=2, metrics=("local_maxima_sum", "l1"),
                          seed=4)


def _rows(result):
    return [row.to_dict() for row in result.rows()]


def _copy_results(source, destination, directories=("objects", "manifest")):
    """The README recipe: ``objects/`` first, then ``manifest/``."""
    for directory in directories:
        shutil.copytree(source / directory, destination / directory,
                        dirs_exist_ok=True)


@pytest.fixture(scope="module")
def shared_source(tmp_path_factory):
    """Store A: one finished run of :data:`SHARE_SPEC`."""
    root = tmp_path_factory.mktemp("host-a") / "store"
    return root, CampaignEngine(SHARE_SPEC, store=root).run()


def test_one_command_writes_equal_bytes_into_two_stores(tmp_path, capsys):
    """Equal keys hold equal bytes: one mixed EM/delay/fault run into two
    fresh stores, with different ``--out``, writes byte-identical
    ``objects/`` and ``manifest/`` trees."""
    from repro.cli import main

    def tree(root):
        return {path.relative_to(root).as_posix(): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    trees = []
    for name in ("a", "b"):
        store = tmp_path / f"store-{name}"
        assert main(["campaign", "run", "--trojan", "HT1", "--dies", "3",
                     "--plaintexts", "2", "--pk-pairs", "2",
                     "--delay-repetitions", "1", "--metric", "l1",
                     "--metric", "delay_max_difference",
                     "--metric", "fault_coverage", "--seed", "4",
                     "--store", str(store),
                     "--out", str(tmp_path / f"out-{name}")]) == 0
        trees.append({directory: tree(store / directory)
                      for directory in ("objects", "manifest")})
    capsys.readouterr()
    assert trees[0] == trees[1]
    kinds = {json.loads(entry)["kind"]
             for entry in trees[0]["manifest"].values()}
    assert "campaign_cell" in kinds and len(trees[0]["objects"]) > 3


def test_copied_results_resume_every_cell_bit_identically(tmp_path,
                                                          shared_source):
    """(a) A's ``objects/`` then ``manifest/`` copied into a store C that
    holds other keys: ``fsck`` is clean and C resumes every cell."""
    source, cold = shared_source
    target = tmp_path / "host-c"
    other = CampaignEngine(dataclasses.replace(SHARE_SPEC, seed=5),
                           store=target).run()
    _copy_results(source, target)
    report = ArtifactStore(target).fsck()
    assert report.clean(), report.summary()
    assert set(ArtifactStore(source).keys()) < set(report.ok)

    resumed = CampaignEngine(SHARE_SPEC, store=target).run()
    assert resumed.resumed == len(SHARE_SPEC.grid())
    assert _rows(resumed) == _rows(cold)
    assert _rows(CampaignEngine(dataclasses.replace(SHARE_SPEC, seed=5),
                                store=target).run()) == _rows(other)


def test_partial_copy_over_own_results_quarantines_and_recomputes(
        tmp_path, shared_source):
    """(b) Only A's ``objects/`` copied into a store D whose completion
    records an older writer stored with its wall-clock time, so D's
    manifest digests do not match A's objects.  ``fsck`` reports those
    keys corrupt, and a resumed run quarantines and recomputes them
    into the same rows."""
    source, cold = shared_source
    target = tmp_path / "host-d"
    engine = CampaignEngine(SHARE_SPEC, store=target)
    engine.run()
    cell_keys = sorted(engine._cell_key(cell) for cell in SHARE_SPEC.grid())
    store = ArtifactStore(target)
    for key in cell_keys:
        store.put_json(key, {**store.get_json(key), "elapsed_s": 0.25},
                       kind="campaign_cell")
    for key in cell_keys:
        assert (source / "objects" / f"{key}.json").read_bytes() != \
            (target / "objects" / f"{key}.json").read_bytes()
    _copy_results(source, target, directories=("objects",))

    report = ArtifactStore(target).fsck()
    assert sorted(report.corrupt) == cell_keys, report.summary()

    resumed = CampaignEngine(SHARE_SPEC, store=target).run()
    assert resumed.resumed == 0
    assert _rows(resumed) == _rows(cold)
    assert sorted(path.name for path in
                  (target / "quarantine").iterdir()) == \
        [f"{key}.json" for key in cell_keys]
    assert ArtifactStore(target).fsck().clean()
