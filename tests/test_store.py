"""Tests for the content-addressed artifact store (`repro.store`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.campaigns.engine import _DelayStudyData
from repro.core.pipeline import PopulationTraceTensors
from repro.store import (
    ArtifactStore,
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
                           cell_timeout_s=9.0, retry_backoff_s=0.1)
    assert cell_key(spec) == cell_key(renamed)
    reseeded = CampaignSpec(name="a", trojans=("HT1",), die_counts=(2,),
                            seed=1)
    assert cell_key(spec) != cell_key(reseeded)


# -- round trips --------------------------------------------------------------


def test_store_json_round_trip(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"payload": "json"})
    assert key not in store
    with pytest.raises(KeyError):
        store.get_json(key)
    entry = store.put_json(key, {"value": 1.5, "names": ["a", "b"]},
                           kind="summary", meta={"campaign": "x"})
    assert key in store and store.has(key)
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


def test_discard_removes_entry_and_object(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"gone": True})
    store.put_json(key, {"v": 1})
    assert store.discard(key)
    assert key not in store
    assert not store.discard(key)
    assert len(store) == 0


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
    assert engine.store.discard(engine._cell_key(follower))

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


def test_deleting_one_completion_recomputes_only_that_cell(tmp_path,
                                                           resume_spec):
    store_dir = tmp_path / "store"
    engine = CampaignEngine(resume_spec, store=store_dir)
    baseline = engine.run()

    victim = resume_spec.grid()[1]
    store_key = engine._cell_key(victim)
    assert engine.store.discard(store_key)

    recomputed = []
    rerun = _counting_engine(resume_spec, store_dir, recomputed).run()
    assert recomputed == [victim.index]
    assert [row.to_dict() for row in rerun.rows()] == \
        [row.to_dict() for row in baseline.rows()]
