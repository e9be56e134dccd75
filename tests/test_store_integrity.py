"""Store integrity: digests, quarantine, fsck/gc and the CLI."""

from __future__ import annotations

import errno
import json

import numpy as np
import pytest

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.cli import main
from repro.store import (
    ArtifactStore,
    RetryPolicy,
    STORE_FORMAT_VERSION,
    StoreIntegrityError,
    stable_key,
)
from chaos import TransientFaultStore

#: A retry policy with zero sleeps: determinism without test latency.
FAST_RETRY = RetryPolicy(attempts=3, base_s=0.0)


def _corrupt_object(store: ArtifactStore, key: str,
                    data: bytes = b"torn garbage") -> None:
    """Overwrite a stored object's payload behind the manifest's back."""
    entry = store.entry(key)
    (store.objects_dir / entry.filename).write_bytes(data)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# -- digests ------------------------------------------------------------------


def test_manifest_entries_record_payload_digests(store):
    json_entry = store.put_json(stable_key({"k": "j"}), {"value": 1})
    npz_entry = store.put_arrays(stable_key({"k": "n"}),
                                 {"x": np.arange(4.0)})
    for entry in (json_entry, npz_entry):
        assert entry.digest is not None
        assert len(entry.digest) == 64
        assert entry.to_dict()["format_version"] == STORE_FORMAT_VERSION
    assert json_entry.digest != npz_entry.digest


def test_corrupt_json_object_is_quarantined_never_returned(store):
    key = stable_key({"payload": "json"})
    store.put_json(key, {"value": 42})
    _corrupt_object(store, key)
    with pytest.raises(StoreIntegrityError) as excinfo:
        store.get_json(key)
    message = str(excinfo.value)
    assert key in message and f"{key}.json" in message
    # The corrupt object was moved aside and the key is a clean miss.
    assert key not in store
    assert (store.quarantine_dir / f"{key}.json").exists()
    assert not (store.objects_dir / f"{key}.json").exists()
    # Recomputing (re-putting) makes the key whole again.
    store.put_json(key, {"value": 42})
    assert store.get_json(key) == {"value": 42}


def test_truncated_npz_object_is_quarantined_never_returned(store):
    key = stable_key({"payload": "npz"})
    store.put_arrays(key, {"x": np.arange(100.0)})
    full = (store.objects_dir / f"{key}.npz").read_bytes()
    _corrupt_object(store, key, full[:len(full) // 2])
    with pytest.raises(StoreIntegrityError) as excinfo:
        store.get_arrays(key)
    assert key in str(excinfo.value)
    assert key not in store
    assert (store.quarantine_dir / f"{key}.npz").exists()


def test_unparseable_payload_with_legacy_entry_raises_integrity_error(store):
    """Format-v1 entries (no digest) still never leak raw parse errors."""
    key = stable_key({"payload": "legacy"})
    store.put_json(key, {"value": 1})
    manifest_path = store.manifest_dir / f"{key}.json"
    payload = json.loads(manifest_path.read_text())
    del payload["digest"]
    manifest_path.write_text(json.dumps(payload))
    _corrupt_object(store, key, b"{not json")
    with pytest.raises(StoreIntegrityError):
        store.get_json(key)
    assert key not in store


def test_load_helpers_fold_miss_and_corruption_into_none(store):
    key = stable_key({"payload": "load"})
    assert store.load_json(key) is None
    assert store.load_arrays(key) is None
    store.put_json(key, {"value": 2})
    assert store.load_json(key) == {"value": 2}
    _corrupt_object(store, key)
    assert store.load_json(key) is None
    assert (store.quarantine_dir / f"{key}.json").exists()


def test_truncated_json_object_is_quarantined_and_recomputes(store):
    key = stable_key({"payload": "torn json"})
    store.put_json(key, {"value": [1, 2, 3]})
    full = (store.objects_dir / f"{key}.json").read_bytes()
    _corrupt_object(store, key, full[:len(full) // 2])
    with pytest.raises(StoreIntegrityError):
        store.get_json(key)
    assert [path.name for path in store.quarantine_dir.iterdir()] == \
        [f"{key}.json"]
    assert store.load_json(key) is None
    # The recompute lands cleanly over the quarantined state.
    store.put_json(key, {"value": [1, 2, 3]})
    assert store.get_json(key) == {"value": [1, 2, 3]}


def test_corrupt_object_is_read_once_never_retried(tmp_path):
    """Corrupt bytes stay corrupt: the read quarantines on the first
    digest mismatch instead of spending retries re-reading them."""
    store = TransientFaultStore(tmp_path / "store", retry=FAST_RETRY)
    key = stable_key({"flip": 1})
    store.put_json(key, {"v": 1})
    _corrupt_object(store, key)
    store.calls.clear()
    with pytest.raises(StoreIntegrityError):
        store.get_json(key)
    # One manifest read, one object read, one move aside.
    assert store.calls["read_bytes"] == 1
    assert store.calls["_open_hashed"] == 1
    assert store.calls["_move"] == 1
    assert key not in store


# -- transient IO faults ------------------------------------------------------


def test_transient_os_blips_in_store_io_are_retried(tmp_path):
    """Each file operation's first try fails with ``EAGAIN``; the
    store's retry policy carries every read and write through."""
    store = TransientFaultStore(
        tmp_path / "store",
        {"read_bytes": 2, "_open_hashed": 2, "_atomic_write_bytes": 2,
         "_list_dir": 2},
        retry=FAST_RETRY)
    jkey = stable_key({"blip": "json"})
    akey = stable_key({"blip": "arrays"})
    store.put_json(jkey, {"v": 1})
    store.put_arrays(akey, {"x": np.arange(4.0)})
    assert store.get_json(jkey) == {"v": 1}
    assert np.array_equal(store.get_arrays(akey)["x"], np.arange(4.0))
    assert sorted(store.keys()) == sorted([jkey, akey])
    for name in ("read_bytes", "_open_hashed", "_atomic_write_bytes",
                 "_list_dir"):
        assert store.faulted[name] > 0, name
        assert store.calls[name] == 2 * store.faulted[name], name
    # The blips left no trace: a fault-free handle reads the same store.
    plain = ArtifactStore(store.root)
    assert plain.get_json(jkey) == {"v": 1}
    assert plain.fsck().clean()


def test_transient_blips_in_streamed_array_io_are_retried(tmp_path):
    """The streamed array put and get run as store file operations: an
    ``EAGAIN`` on the object's streamed write, on its manifest write
    and on the streamed read is each retried, and the arrays round-trip
    (a put or get that bypassed the store's operations would not
    fault here)."""
    store = TransientFaultStore(
        tmp_path / "store", {"_atomic_write_bytes": 2, "_open_hashed": 2},
        retry=FAST_RETRY)
    key = stable_key({"blip": "streamed"})
    arrays = {"x": np.arange(300_000.0), "y": np.arange(6).reshape(2, 3)}
    store.put_arrays(key, arrays)
    assert store.faulted == {"_atomic_write_bytes": 2}
    loaded = store.get_arrays(key)
    assert store.faulted == {"_atomic_write_bytes": 2, "_open_hashed": 1}
    for name, array in arrays.items():
        assert loaded[name].tobytes() == array.tobytes()
    assert ArtifactStore(store.root).fsck().clean()


def test_persistent_write_error_fails_the_put_and_leaves_a_miss(tmp_path):
    store = TransientFaultStore(tmp_path / "store",
                                {"_atomic_write_bytes": 1},
                                retry=FAST_RETRY)
    key = stable_key({"stuck": "write"})
    with pytest.raises(OSError) as excinfo:
        store.put_json(key, {"v": 1})
    assert excinfo.value.errno == errno.EAGAIN
    # Bounded: exactly the policy's attempts, then the error surfaces.
    assert store.calls["_atomic_write_bytes"] == FAST_RETRY.attempts
    assert key not in store
    assert list(store.objects_dir.iterdir()) == []
    assert list(store.manifest_dir.iterdir()) == []
    # Once the blips stop, the same put succeeds.
    store.faults.clear()
    store.put_json(key, {"v": 1})
    assert store.get_json(key) == {"v": 1}


def test_persistent_read_error_is_not_corruption(tmp_path):
    """An IO error that outlasts the retries propagates as itself; it
    never quarantines the (intact) object behind it."""
    store = TransientFaultStore(tmp_path / "store", retry=FAST_RETRY)
    key = stable_key({"stuck": "read"})
    store.put_json(key, {"v": 1})
    store.faults["read_bytes"] = 1
    with pytest.raises(OSError) as excinfo:
        store.get_json(key)
    assert not isinstance(excinfo.value, StoreIntegrityError)
    assert excinfo.value.errno == errno.EAGAIN
    assert not store.quarantine_dir.exists() or \
        list(store.quarantine_dir.iterdir()) == []
    store.faults.clear()
    assert store.get_json(key) == {"v": 1}
    assert store.fsck().clean()


# -- fsck / gc ----------------------------------------------------------------


def test_fsck_clean_store(store):
    store.put_json(stable_key({"a": 1}), {"v": 1})
    store.put_arrays(stable_key({"a": 2}), {"x": np.zeros(3)})
    report = store.fsck()
    assert report.clean()
    assert len(report.ok) == 2
    assert "store is clean" in report.summary()


def test_fsck_finds_and_repairs_every_failure_mode(store):
    ok_key = stable_key({"keep": 1})
    store.put_json(ok_key, {"v": 1})
    corrupt_key = stable_key({"corrupt": 1})
    store.put_json(corrupt_key, {"v": 2})
    _corrupt_object(store, corrupt_key)
    dangling_key = stable_key({"dangling": 1})
    store.put_json(dangling_key, {"v": 3})
    (store.objects_dir / f"{dangling_key}.json").unlink()
    unreadable_key = stable_key({"unreadable": 1})
    store.put_json(unreadable_key, {"v": 4})
    (store.manifest_dir / f"{unreadable_key}.json").write_text("{torn")
    (store.objects_dir / "orphan.json").write_text("{}")
    (store.objects_dir / ".stray.json.abc.tmp").write_text("partial")

    report = store.fsck()
    assert not report.clean()
    assert report.ok == [ok_key]
    assert report.corrupt == [corrupt_key]
    assert report.missing_objects == [dangling_key]
    assert report.unreadable_manifests == [unreadable_key]
    assert report.orphan_objects == ["orphan.json"]
    assert len(report.stray_tmp) == 1
    assert "corrupt" in report.summary()

    repaired = store.fsck(repair=True)
    assert repaired.corrupt == [corrupt_key]
    assert (store.quarantine_dir / f"{corrupt_key}.json").exists()
    # The torn manifest's object was intact, so the manifest is rebuilt
    # from it instead of the work being discarded.
    assert repaired.rebuilt_manifests == [unreadable_key]
    assert repaired.unreadable_manifests == []
    # No put is in flight under the exclusive lock: the orphan and the
    # temp file are a dead writer's leftovers, removed at once.
    assert repaired.orphan_objects == ["orphan.json"]
    assert not (store.objects_dir / "orphan.json").exists()
    assert repaired.stray_tmp == ["objects/.stray.json.abc.tmp"]
    assert not (store.objects_dir / ".stray.json.abc.tmp").exists()
    after = store.fsck()
    assert after.clean()
    assert after.corrupt == [] and after.missing_objects == []
    assert after.unreadable_manifests == [] and after.stray_tmp == []
    assert after.orphan_objects == []
    assert store.get_json(ok_key) == {"v": 1}
    assert store.get_json(unreadable_key) == {"v": 4}
    assert store.entry(unreadable_key).meta.get("rebuilt") is True


def test_gc_sweeps_orphans_tmp_and_quarantine(store):
    kept = stable_key({"keep": 1})
    store.put_json(kept, {"v": 1})
    (store.objects_dir / "orphan.npz").write_bytes(b"junk")
    (store.objects_dir / ".x.json.abc.tmp").write_text("partial")
    corrupt = stable_key({"corrupt": 1})
    store.put_json(corrupt, {"v": 2})
    _corrupt_object(store, corrupt)
    assert store.load_json(corrupt) is None  # quarantines

    removed = store.gc(purge_quarantine=True)
    assert removed == {"orphan_objects": 1, "stray_tmp": 1,
                       "quarantined": 1}
    assert store.get_json(kept) == {"v": 1}
    assert not (store.objects_dir / "orphan.npz").exists()
    assert not any(store.quarantine_dir.iterdir())


def test_gc_keeps_the_object_of_a_torn_manifest(store):
    """An unreadable manifest still claims its object: gc leaves both,
    and ``fsck --repair`` rebuilds the entry from the intact object."""
    key = stable_key({"torn": "manifest"})
    store.put_json(key, {"v": 5})
    (store.manifest_dir / f"{key}.json").write_text("{torn")
    assert store.gc()["orphan_objects"] == 0
    assert (store.objects_dir / f"{key}.json").exists()
    assert store.fsck(repair=True).rebuilt_manifests == [key]
    assert store.get_json(key) == {"v": 5}


def test_gc_removes_key_lock_files_and_keeps_the_store_lock(store):
    """Key-lock files are swept under the exclusive lock; the store lock
    file stays, and later puts recreate the key locks they need."""
    keys = [stable_key({"key_lock": n}) for n in range(3)]
    for n, key in enumerate(keys):
        store.put_json(key, {"v": n})
    assert len(list(store.locks_dir.glob("key.*.lock"))) == 3
    store.gc()
    assert not list(store.locks_dir.glob("key.*.lock"))
    assert (store.locks_dir / "store.lock").exists()
    later = stable_key({"key_lock": "later"})
    store.put_json(later, {"v": 9})
    assert [store.get_json(key) for key in keys] == [{"v": n}
                                                     for n in range(3)]
    assert store.get_json(later) == {"v": 9}
    assert store.fsck().clean()


def test_fsck_repair_is_idempotent(store):
    """A second repair pass over the same store reports all-clean."""
    store.put_json(stable_key({"keep": "idem"}), {"v": 1})
    corrupt = stable_key({"corrupt": "idem"})
    store.put_json(corrupt, {"v": 2})
    _corrupt_object(store, corrupt)
    torn = stable_key({"torn": "idem"})
    store.put_json(torn, {"v": 3})
    (store.manifest_dir / f"{torn}.json").write_text("{torn")
    (store.objects_dir / "orphan.json").write_text("{}")
    (store.objects_dir / ".stray.json.abc.tmp").write_text("partial")

    first = store.fsck(repair=True)
    assert not first.clean()
    second = store.fsck(repair=True)
    assert second.clean()
    assert second.corrupt == [] and second.orphan_objects == []
    assert second.rebuilt_manifests == [] and second.stray_tmp == []
    # Two verified keys: the untouched one and the rebuilt one.
    assert len(second.ok) == 2


def test_repeated_corruption_keeps_every_quarantined_payload(store):
    """Quarantining the same key twice must not clobber the first payload."""
    key = stable_key({"quarantine": "repeat"})
    store.put_json(key, {"v": 1})
    _corrupt_object(store, key, b"first corruption")
    assert store.load_json(key) is None
    store.put_json(key, {"v": 1})
    _corrupt_object(store, key, b"second corruption")
    assert store.load_json(key) is None
    first = store.quarantine_dir / f"{key}.json"
    second = store.quarantine_dir / f"{key}.json.1"
    assert first.read_bytes() == b"first corruption"
    assert second.read_bytes() == b"second corruption"


def test_read_vs_discard_race_is_a_clean_miss(store, monkeypatch):
    """An object vanishing between the manifest read and the payload read
    (concurrent discard/gc) must be a miss, not a raw FileNotFoundError."""
    key = stable_key({"race": "read"})
    store.put_json(key, {"v": 7})
    stale_entry = store.entry(key)
    (store.objects_dir / stale_entry.filename).unlink()
    # Freeze the manifest view at the pre-delete entry: this is exactly
    # what a reader that parsed the manifest just before the discard sees.
    monkeypatch.setattr(store, "entry", lambda _key: stale_entry)
    with pytest.raises(KeyError):
        store.get_json(key)
    assert store.load_json(key) is None
    assert store.load_arrays(key) is None


def test_manifest_entry_tolerates_unknown_extra_fields():
    """Entries written by a newer store stay readable by this code."""
    from repro.store import ManifestEntry

    payload = {"format_version": STORE_FORMAT_VERSION + 1, "key": "k",
               "kind": "json", "filename": "k.json", "meta": {"a": 1},
               "digest": "0" * 64,
               "compression": "zstd", "shards": [1, 2, 3]}
    entry = ManifestEntry.from_dict(payload)
    assert entry.key == "k" and entry.filename == "k.json"
    assert entry.meta == {"a": 1} and entry.digest == "0" * 64


# -- engine read-through ------------------------------------------------------


def test_engine_recomputes_through_corrupted_artifacts(tmp_path):
    """A torn store artifact costs a recompute, never a crashed campaign."""
    spec = CampaignSpec(name="integrity", trojans=("HT1",), die_counts=(2,),
                        metrics=("local_maxima_sum",), seed=11)
    store_root = tmp_path / "store"
    first = CampaignEngine(spec, store=store_root).run()
    store = ArtifactStore(store_root)
    keys = list(store.keys())
    assert keys
    for key in keys:
        _corrupt_object(store, key)
    again = CampaignEngine(spec, store=store_root).run()
    assert [row.to_dict() for row in again.rows()] == \
        [row.to_dict() for row in first.rows()]
    # Every corrupted object was quarantined on read and recomputed.
    assert store.fsck().clean()
    assert len(list(store.quarantine_dir.iterdir())) == len(keys)


# -- CLI ----------------------------------------------------------------------


def test_cli_store_fsck_and_gc(tmp_path, capsys):
    store = ArtifactStore(tmp_path / "store")
    good = stable_key({"cli": "good"})
    store.put_json(good, {"v": 1})
    bad = stable_key({"cli": "bad"})
    store.put_json(bad, {"v": 2})
    _corrupt_object(store, bad)
    (store.objects_dir / "orphan.json").write_text("{}")

    assert main(["store", "fsck", str(store.root)]) == 1
    out = capsys.readouterr().out
    assert "1 corrupt" in out and bad in out

    assert main(["store", "fsck", str(store.root), "--repair"]) == 1
    capsys.readouterr()
    assert (store.quarantine_dir / f"{bad}.json").exists()
    # Repair also removed the orphan.
    assert not (store.objects_dir / "orphan.json").exists()

    assert main(["store", "gc", str(store.root), "--purge-quarantine"]) == 0
    out = capsys.readouterr().out
    assert "0 orphan object(s)" in out and "1 quarantined" in out

    assert main(["store", "fsck", str(store.root)]) == 0
    assert "store is clean" in capsys.readouterr().out


@pytest.mark.parametrize("command", [("gc",), ("fsck", "--repair")],
                         ids=["gc", "fsck-repair"])
def test_cli_maintenance_sweeps_a_dead_writers_leftovers(tmp_path, capsys,
                                                         command):
    """A writer killed mid-put leaves a temp file and an object without
    its manifest entry.  Maintenance removes both with no extra option,
    keeps every recorded artifact, and the audit after it is clean."""
    store = ArtifactStore(tmp_path / "store")
    kept = stable_key({"dead": "writer", "kept": True})
    store.put_json(kept, {"v": 1})
    orphan = store.objects_dir / f"{stable_key({'dead': 'orphan'})}.json"
    orphan.write_text('{"v": 2}')
    stray = store.objects_dir / f".{orphan.name}.abc.tmp"
    stray.write_text("partial")

    verb, *options = command
    assert main(["store", verb, str(store.root), *options]) in (0, 1)
    capsys.readouterr()
    assert not orphan.exists() and not stray.exists()
    assert store.get_json(kept) == {"v": 1}
    assert main(["store", "fsck", str(store.root)]) == 0
    assert "store is clean" in capsys.readouterr().out


def test_cli_fsck_repair_names_the_quarantine_only_for_corrupt_objects(
        tmp_path, capsys):
    """Repairing an orphan object and a temp file moves nothing to the
    quarantine, so the report lists both as removed and names no
    quarantine; a repaired corrupt object is named with it."""
    store = ArtifactStore(tmp_path / "store")
    orphan = store.objects_dir / f"{stable_key({'fsck': 'orphan'})}.json"
    orphan.write_text('{"v": 2}')
    stray = store.objects_dir / f".{orphan.name}.abc.tmp"
    stray.write_text("partial")

    assert main(["store", "fsck", str(store.root), "--repair"]) == 1
    out = capsys.readouterr().out
    assert "quarantine" not in out
    assert f"1 orphan objects (removed): {orphan.name}" in out
    assert "1 stray temp files (removed): objects/" in out

    corrupt = stable_key({"fsck": "corrupt"})
    store.put_json(corrupt, {"v": 3})
    (store.objects_dir / f"{corrupt}.json").write_text('{"v": 4}')
    assert main(["store", "fsck", str(store.root), "--repair"]) == 1
    out = capsys.readouterr().out
    assert f"1 corrupt (quarantined): {corrupt}" in out
    assert f"corrupt objects moved to {store.quarantine_dir}" in out


def test_cli_store_fsck_missing_directory(tmp_path, capsys):
    assert main(["store", "fsck", str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert main(["store", "gc", str(tmp_path / "nope")]) == 2


# -- fresh / partially-materialised stores (regression) -----------------------


def test_fsck_repair_no_ops_cleanly_on_fresh_store(tmp_path, capsys):
    """``store fsck --repair`` on an empty, fresh store is a clean no-op."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert main(["store", "fsck", str(fresh), "--repair"]) == 0
    assert "store is clean" in capsys.readouterr().out
    assert main(["store", "gc", str(fresh)]) == 0


def test_fsck_and_gc_survive_missing_store_subdirectories(tmp_path):
    """Maintenance must audit a store whose objects/ or manifest/
    directory vanished (purge racing maintenance, partial copy) as
    empty — not crash with FileNotFoundError."""
    import shutil

    store = ArtifactStore(tmp_path / "store")
    shutil.rmtree(store.objects_dir)
    report = store.fsck(repair=True)
    assert report.clean()
    removed = store.gc()
    assert removed["orphan_objects"] == 0 and removed["stray_tmp"] == 0

    shutil.rmtree(store.manifest_dir)
    report = store.fsck(repair=True)
    assert report.clean()
    assert store.gc()["orphan_objects"] == 0
    # The store still works afterwards: a put recreates what it needs.
    store.manifest_dir.mkdir(parents=True, exist_ok=True)
    store.objects_dir.mkdir(parents=True, exist_ok=True)
    key = stable_key({"fresh": True})
    store.put_json(key, {"v": 1})
    assert store.load_json(key) == {"v": 1}
