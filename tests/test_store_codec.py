"""The store's array codec: stored npz, and deflated objects still read.

Array payloads are written as npz archives whose members are stored,
not deflated.  Objects written with the earlier deflated encoding keep
their manifest digests, verify and decode, so a store populated before
the switch resumes warm.  A digest-less (format-version-1) entry lets
corrupt bytes reach the npz parser; whatever the corruption, the read
ends in a clean decode or a quarantine — never a raw parser exception.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile

import numpy as np
import pytest

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.measurement.em_simulator import EMSimulator
from repro.store import ArtifactStore, StoreIntegrityError, stable_key
from repro.store.artifact_store import ManifestEntry, encode_array_bytes

ARRAYS = {"x": np.arange(4.0)}


def _npz_bytes(save, arrays) -> bytes:
    buffer = io.BytesIO()
    save(buffer, **arrays)
    return buffer.getvalue()


def test_array_objects_store_every_member_uncompressed(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"codec": "stored"})
    store.put_arrays(key, {"signal": np.linspace(0.0, 1.0, 64),
                           "labels": np.array(["golden", "HT1"])})
    data = (store.objects_dir / f"{key}.npz").read_bytes()
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        members = archive.infolist()
    assert [member.filename for member in members] == ["signal.npy",
                                                       "labels.npy"]
    assert all(member.compress_type == zipfile.ZIP_STORED
               for member in members)


@pytest.mark.parametrize("save", [np.savez, np.savez_compressed],
                         ids=["stored", "deflated"])
def test_both_npz_encodings_decode_to_identical_arrays(tmp_path, save):
    arrays = {"signal": np.array([-0.0, 1.5, -2.25]),
              "counts": np.arange(6, dtype=np.int64).reshape(2, 3)}
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"codec": save.__name__})
    store.put_object(ManifestEntry(key=key, kind="arrays",
                                   filename=f"{key}.npz"),
                     _npz_bytes(save, arrays))
    loaded = store.get_arrays(key)
    for name, value in arrays.items():
        assert loaded[name].dtype == value.dtype
        assert loaded[name].tobytes() == value.tobytes()
    assert encode_array_bytes(loaded) == _npz_bytes(np.savez, arrays)


@pytest.mark.parametrize("save", [np.savez, np.savez_compressed],
                         ids=["stored", "deflated"])
def test_corrupt_legacy_npz_object_never_leaks_a_parser_error(tmp_path,
                                                              save):
    """Every single-byte flip and every 7-byte truncation of an npz
    object behind a digest-less entry either decodes to the original
    arrays or is quarantined as a :class:`StoreIntegrityError`."""
    store = ArtifactStore(tmp_path / "store", locking=False)
    key = stable_key({"payload": "legacy-npz"})
    data = _npz_bytes(save, ARRAYS)
    entry = store.put_object(ManifestEntry(key=key, kind="arrays",
                                           filename=f"{key}.npz"), data)
    legacy = entry.to_dict()
    legacy["format_version"] = 1
    del legacy["digest"]
    manifest = store.manifest_dir / f"{key}.json"
    object_path = store.objects_dir / f"{key}.npz"
    cases = [data[:index] + bytes([data[index] ^ mask]) + data[index + 1:]
             for mask in (0x01, 0xFF) for index in range(len(data))]
    cases += [data[:length] for length in range(0, len(data), 7)]
    rejected = 0
    for number, case in enumerate(cases):
        manifest.write_text(json.dumps(legacy))
        object_path.write_bytes(case)
        parses = not store.fsck().corrupt
        if number % 2:
            loaded = store.load_arrays(key)
        else:
            try:
                loaded = store.get_arrays(key)
            except StoreIntegrityError:
                loaded = None
        if loaded is None:
            rejected += 1
            assert not parses, f"case {number}: fsck passed a corrupt object"
            assert key not in store
            assert not object_path.exists()
            assert (store.quarantine_dir / f"{key}.npz").exists()
            for path in store.quarantine_dir.iterdir():
                path.unlink()
        else:
            assert parses
            assert loaded["x"].tobytes() == ARRAYS["x"].tobytes()
    assert rejected > len(cases) // 2


def _deflate_array_objects(store: ArtifactStore) -> int:
    """Rewrite every array object with the deflated encoding."""
    rewritten = 0
    for key, entry in store.index().items():
        if entry.filename.endswith(".npz"):
            deflated = _npz_bytes(np.savez_compressed, store.get_arrays(key))
            store.put_object(dataclasses.replace(entry, digest=None),
                             deflated)
            rewritten += 1
    return rewritten


def test_store_of_deflated_objects_resumes_warm(tmp_path, golden_design,
                                                monkeypatch):
    """A store whose population object holds deflated npz bytes resumes
    its finished cell and recomputes a lost one without acquiring."""
    spec = CampaignSpec(name="codec", trojans=("HT1",), die_counts=(3,),
                        metrics=("local_maxima_sum", "l1"),
                        num_plaintexts=2, seed=5)
    cold_engine = CampaignEngine(spec, golden=golden_design,
                                 store=tmp_path / "store")
    cold = cold_engine.run()
    store = cold_engine.store
    assert _deflate_array_objects(store) >= 1
    resumed, lost = spec.grid()
    assert store.discard(cold_engine._cell_key(lost))

    def no_acquisition(*args, **kwargs):
        raise AssertionError("acquired instead of reading the store")

    monkeypatch.setattr(EMSimulator, "_acquire_grid", no_acquisition)
    warm = CampaignEngine(spec, golden=golden_design,
                          store=tmp_path / "store")
    assert warm.load_cell_result(resumed) is not None
    assert warm.load_cell_result(lost) is None
    result = warm.run()
    assert [row.to_dict() for row in result.rows()] == \
        [row.to_dict() for row in cold.rows()]
    assert store.fsck().clean()
