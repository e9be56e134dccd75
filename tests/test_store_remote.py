"""Transport layer, circuit breaker, remote store and tiered store."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.store import (
    ArtifactStore,
    CircuitBreaker,
    CircuitOpenError,
    FlakyTransport,
    LoopbackTransport,
    ManifestEntry,
    PendingUploadJournal,
    RemoteStore,
    RetryPolicy,
    StoreIntegrityError,
    TieredStore,
    TransportConnectionError,
    TransportTimeout,
    build_store,
    build_transport,
    stable_key,
)
from repro.testing.faults import (
    FaultClock,
    FaultSchedule,
    FaultWindow,
    OneShotTrigger,
)

#: A retry policy with zero sleeps — determinism without test latency.
FAST_RETRY = RetryPolicy(attempts=3, base_s=0.0, token="test")


def _remote(transport, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return RemoteStore(transport, **kwargs)


# -- fault-schedule primitives -------------------------------------------------


def test_one_shot_trigger_fires_exactly_once_after_skips():
    trigger = OneShotTrigger(skip=2)
    assert [trigger.should_fire() for _ in range(5)] == [
        False, False, True, False, False]
    assert trigger.fired


def test_fault_schedule_is_deterministic_and_ordered():
    schedule = FaultSchedule(
        at=((3, "timeout"),),
        windows=(FaultWindow(5, 8, "connect"),),
        rates=(("latency", 0.5),),
        seed=7,
    )
    faults = [schedule.fault_at(i) for i in range(10)]
    # Same schedule, same answers — a pure function of the ordinal.
    assert faults == [schedule.fault_at(i) for i in range(10)]
    assert faults[3] == "timeout"
    assert faults[5:8] == ["connect"] * 3
    # Rates draw per-(seed, kind, ordinal): changing the seed changes
    # the draw stream, equal seeds replay it.
    other = FaultSchedule(rates=(("latency", 0.5),), seed=8)
    assert [FaultSchedule(rates=(("latency", 0.5),), seed=8).fault_at(i)
            for i in range(64)] == [other.fault_at(i) for i in range(64)]
    assert schedule.horizon() == 8
    # Windows can target one operation kind.
    put_only = FaultSchedule(windows=(FaultWindow(0, 4, "connect", op="put"),))
    assert put_only.fault_at(1, op="put") == "connect"
    assert put_only.fault_at(1, op="get") is None
    clock = FaultClock(schedule)
    assert [clock.next_fault() for _ in range(4)] == faults[:4]


# -- loopback transport --------------------------------------------------------


def test_loopback_transport_semantics(tmp_path):
    transport = LoopbackTransport(tmp_path / "remote")
    with pytest.raises(KeyError):
        transport.get("objects/missing.json")
    transport.put("objects/a.json", b"payload")
    assert transport.get("objects/a.json") == b"payload"
    transport.put("tmp/a.part", b"payload2")
    transport.commit("tmp/a.part", "objects/b.json")
    assert transport.get("objects/b.json") == b"payload2"
    assert transport.list("objects") == ["objects/a.json", "objects/b.json"]
    assert transport.list("tmp") == []
    transport.delete("objects/a.json")
    transport.delete("objects/a.json")  # idempotent
    assert transport.list("objects") == ["objects/b.json"]
    with pytest.raises(KeyError):
        transport.commit("tmp/nope", "objects/c.json")
    for bad in ("", "../escape", "a//b", "objects/../../etc"):
        with pytest.raises(ValueError):
            transport.get(bad)
    rebuilt = build_transport(transport.spawn_config())
    assert rebuilt.get("objects/b.json") == b"payload2"


# -- flaky transport -----------------------------------------------------------


def test_flaky_transport_injects_scripted_faults(tmp_path):
    inner = LoopbackTransport(tmp_path / "remote")
    schedule = FaultSchedule(at=((0, "connect"), (2, "timeout"),
                                 (4, "truncate"), (6, "corrupt")), seed=3)
    flaky = FlakyTransport(inner, schedule)
    with pytest.raises(TransportConnectionError):
        flaky.put("objects/a.json", b"x" * 64)  # op 0: connect fault
    assert isinstance(TransportConnectionError("x"), ConnectionResetError)
    flaky.put("objects/a.json", b"x" * 64)  # op 1: clean
    with pytest.raises(TransportTimeout):
        flaky.get("objects/a.json")  # op 2: timeout fault
    assert isinstance(TransportTimeout("x"), TimeoutError)
    assert flaky.get("objects/a.json") == b"x" * 64  # op 3: clean
    assert len(flaky.get("objects/a.json")) == 32  # op 4: truncated
    assert flaky.get("objects/a.json") == b"x" * 64  # op 5: clean
    corrupted = flaky.get("objects/a.json")  # op 6: one byte flipped
    assert corrupted != b"x" * 64 and len(corrupted) == 64
    assert flaky.ops == 7
    assert flaky.fault_counts == {"connect": 1, "timeout": 1,
                                  "truncate": 1, "corrupt": 1}


def test_flaky_transport_replays_identically(tmp_path):
    schedule = FaultSchedule(rates=(("connect", 0.3),), seed=11)
    outcomes = []
    for round_ in range(2):
        inner = LoopbackTransport(tmp_path / f"remote{round_}")
        inner.put("objects/a.json", b"data")
        flaky = FlakyTransport(inner, schedule)
        row = []
        for _ in range(20):
            try:
                flaky.get("objects/a.json")
                row.append("ok")
            except ConnectionError:
                row.append("connect")
        outcomes.append(row)
    assert outcomes[0] == outcomes[1]
    assert "connect" in outcomes[0] and "ok" in outcomes[0]


# -- circuit breaker -----------------------------------------------------------


def test_breaker_transitions_are_deterministic():
    ticks = {"t": 0.0}
    breaker = CircuitBreaker(failure_threshold=3, reset_after=5.0,
                             clock=lambda: ticks["t"])
    assert breaker.state == "closed"
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == "closed"  # below threshold
    breaker.record_success()
    assert breaker.consecutive_failures == 0  # success resets the count
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()  # cooldown not elapsed
    ticks["t"] = 4.9
    assert not breaker.allow()
    ticks["t"] = 5.0
    assert breaker.allow()  # the half-open probe
    assert breaker.state == "half-open"
    breaker.record_failure()  # probe failed: back to open, new cooldown
    assert breaker.state == "open"
    ticks["t"] = 9.9
    assert not breaker.allow()
    ticks["t"] = 10.0
    assert breaker.allow()
    breaker.record_success()  # probe succeeded: closed again
    assert breaker.state == "closed"
    assert [(frm, to) for _, frm, to in breaker.transitions] == [
        ("closed", "open"), ("open", "half-open"), ("half-open", "open"),
        ("open", "half-open"), ("half-open", "closed")]


def test_remote_store_breaker_opens_and_probes(tmp_path):
    """The full closed → open → half-open trajectory, deterministic.

    The breaker's default clock counts *store operations*, so with
    threshold 3 and reset_after 2 the exact sequence below is a pure
    function of the fault schedule: a partition over transport ops
    0..14 gives three failures (trip), one fast-fail, two failed
    probes with a fast-fail between, then a successful probe once the
    window heals (each failed call burns 3 retried transport ops).
    """
    schedule = FaultSchedule(windows=(FaultWindow(0, 15, "connect"),), seed=0)
    flaky = FlakyTransport(LoopbackTransport(tmp_path / "remote"), schedule)
    remote = _remote(flaky)
    remote.breaker.failure_threshold = 3
    remote.breaker.reset_after = 2.0
    for _ in range(3):  # store ops 1-3: transport failures
        with pytest.raises(ConnectionError):
            remote.entry("k")
    assert remote.breaker.state == "open"
    assert flaky.ops == 9  # 3 calls x 3 retried attempts
    with pytest.raises(CircuitOpenError):
        remote.entry("k")  # store op 4: fails fast...
    assert flaky.ops == 9  # ...without touching the transport
    assert isinstance(CircuitOpenError("x"), ConnectionError)
    with pytest.raises(ConnectionError):
        remote.entry("k")  # store op 5: the half-open probe — fails
    assert remote.breaker.state == "open"
    assert flaky.ops == 12
    with pytest.raises(CircuitOpenError):
        remote.entry("k")  # store op 6: fresh cooldown, fast-fail
    with pytest.raises(ConnectionError):
        remote.entry("k")  # store op 7: probe fails again
    with pytest.raises(CircuitOpenError):
        remote.entry("k")  # store op 8
    assert flaky.ops == 15  # the partition window is exhausted
    # Store op 9: the probe lands on a healed transport; a remote miss
    # is a *successful* round-trip, so the breaker closes.
    assert remote.entry("k") is None
    assert remote.breaker.state == "closed"
    assert [(frm, to) for _, frm, to in remote.breaker.transitions] == [
        ("closed", "open"),
        ("open", "half-open"), ("half-open", "open"),
        ("open", "half-open"), ("half-open", "open"),
        ("open", "half-open"), ("half-open", "closed")]


# -- remote store --------------------------------------------------------------


def test_remote_store_roundtrip_and_atomic_layout(tmp_path):
    transport = LoopbackTransport(tmp_path / "remote")
    remote = _remote(transport)
    key = stable_key({"remote": 1})
    entry = remote.put_json(key, {"v": 1}, meta={"m": 2})
    assert remote.load_json(key) == {"v": 1}
    assert remote.entry(key).meta == {"m": 2}
    akey = stable_key({"remote": "arrays"})
    remote.put_arrays(akey, {"x": np.arange(6.0)})
    assert (remote.load_arrays(akey)["x"] == np.arange(6.0)).all()
    assert sorted(remote.keys()) == sorted([key, akey])
    assert len(remote) == 2
    # Upload-then-commit left no tmp blobs behind.
    assert transport.list("tmp") == []
    # The manifest is valid JSON naming the digest.
    raw = json.loads(transport.get(f"manifest/{key}.json"))
    assert raw["digest"] == entry.digest
    assert remote.load_json("missing") is None
    assert remote.discard(key)
    assert remote.load_json(key) is None


def test_remote_store_verifies_and_quarantines_corruption(tmp_path):
    transport = LoopbackTransport(tmp_path / "remote")
    remote = _remote(transport)
    key = stable_key({"corrupt": True})
    remote.put_json(key, {"v": 1})
    # Corrupt the blob behind the manifest's back.
    transport.put(f"objects/{key}.json", b"garbage bytes")
    with pytest.raises(StoreIntegrityError):
        remote.get_json(key)
    # Quarantined remotely, manifest dropped: now a clean miss.
    assert transport.list("quarantine") == [f"quarantine/{key}.json"]
    assert remote.load_json(key) is None
    # Recompute lands cleanly over the quarantined state.
    remote.put_json(key, {"v": 2})
    assert remote.load_json(key) == {"v": 2}


def test_remote_store_corruption_is_never_retried(tmp_path):
    """An in-flight corrupt payload quarantines immediately — the retry
    loop must not burn attempts re-reading poisoned bytes."""
    schedule = FaultSchedule(at=((2, "corrupt"),), seed=5)
    inner = LoopbackTransport(tmp_path / "remote")
    flaky = FlakyTransport(inner, schedule)
    remote = _remote(flaky)
    key = stable_key({"flip": 1})
    remote.put_json(key, {"v": 1})  # ops 0-2: put, commit, manifest put
    ops_before = flaky.ops
    # op 3: manifest get (clean), op 4: object get — wait, the corrupt
    # fault hit op 2 (the manifest upload), so the manifest bytes were
    # corrupted in flight and the entry is unparseable: a clean miss.
    assert remote.load_json(key) is None
    assert flaky.ops == ops_before + 1  # one manifest get, no retries


def test_remote_store_truncated_payload_quarantines(tmp_path):
    schedule = FaultSchedule(at=((4, "truncate"),), seed=5)
    inner = LoopbackTransport(tmp_path / "remote")
    remote = _remote(FlakyTransport(inner, schedule))
    key = stable_key({"tear": 1})
    remote.put_json(key, {"v": [1, 2, 3]})  # ops 0-2
    # op 3: manifest get, op 4: object get → truncated in flight.
    with pytest.raises(StoreIntegrityError):
        remote.get_json(key)
    # The *stored* blob was fine — only the transfer tore — but the
    # reader cannot know; it quarantined the remote blob and the key
    # recomputes.  That is the safe direction.
    assert inner.list("quarantine") == [f"quarantine/{key}.json"]


def test_local_and_remote_stores_write_the_same_bytes(tmp_path):
    """One store implementation, one on-disk format: a local store and a
    loopback remote lay down byte-identical objects and manifest entries
    at the same relative paths, and the JSON bytes are pinned."""
    local_root, remote_root = tmp_path / "local", tmp_path / "remote"
    stores = (ArtifactStore(local_root),
              _remote(LoopbackTransport(remote_root)))
    jkey = stable_key({"format": "json"})
    akey = stable_key({"format": "arrays"})
    for store in stores:
        store.put_json(jkey, {"b": [1, 2.5, "x"], "a": {"nested": True}},
                       kind="probe", meta={"producer": "pin", "n": 3})
        store.put_arrays(akey, {"x": np.arange(6.0).reshape(2, 3),
                                "y": np.array([1, 2], dtype=np.int32)},
                         kind="probe_arrays", meta={"n": 2})
    layout = [f"objects/{jkey}.json", f"manifest/{jkey}.json",
              f"objects/{akey}.npz", f"manifest/{akey}.json"]
    for root in (local_root, remote_root):
        assert sorted(path.relative_to(root).as_posix()
                      for directory in ("objects", "manifest")
                      for path in (root / directory).iterdir()) == \
            sorted(layout)
    for relative in layout:
        assert (local_root / relative).read_bytes() == \
            (remote_root / relative).read_bytes(), relative
    digests = {relative: hashlib.sha256(
        (local_root / relative).read_bytes()).hexdigest()
        for relative in layout[:2]}
    # Changing these changes every content digest a store ever recorded.
    assert digests == {
        f"objects/{jkey}.json":
            "d46e0fc8cbafd01f419583d70214ff9ec5eec291261e66f55f39cb89128fe682",
        f"manifest/{jkey}.json":
            "b99aa577ff41ac9f2b5ace0fe1d80d15ab8973b5ed89356888f5a96dc39caf9b",
    }


# -- tiered store --------------------------------------------------------------


def test_tiered_store_write_through_and_backfill(tmp_path):
    remote_dir = tmp_path / "remote"
    tiered = TieredStore(tmp_path / "local", _remote(
        LoopbackTransport(remote_dir)))
    key = stable_key({"t": 1})
    tiered.put_json(key, {"v": 1})
    # Write-through: both tiers hold it.
    assert tiered.local.load_json(key) == {"v": 1}
    assert _remote(LoopbackTransport(remote_dir)).load_json(key) == {"v": 1}
    # A fresh local tier backfills from the remote on first read.
    tiered2 = TieredStore(tmp_path / "local2",
                          _remote(LoopbackTransport(remote_dir)))
    assert tiered2.load_json(key) == {"v": 1}
    assert tiered2.remote_hits == 1 and tiered2.backfills == 1
    assert tiered2.local.load_json(key) == {"v": 1}
    # Second read is purely local.
    assert tiered2.load_json(key) == {"v": 1}
    assert tiered2.remote_hits == 1
    akey = stable_key({"t": "arrays"})
    tiered.put_arrays(akey, {"x": np.arange(3)})
    assert (tiered2.load_arrays(akey)["x"] == np.arange(3)).all()
    assert sorted(tiered.keys()) == sorted([key, akey])


def test_tiered_store_backfills_over_a_corrupt_local_copy(tmp_path):
    """A torn local object is quarantined and replaced by the intact
    remote copy within the same read; the next read is local."""
    remote_dir = tmp_path / "remote"
    writer = TieredStore(tmp_path / "local",
                         _remote(LoopbackTransport(remote_dir)))
    key = stable_key({"t": "corrupt-local"})
    writer.put_json(key, {"v": 1})
    (writer.local.objects_dir / f"{key}.json").write_bytes(b"torn local copy")

    tiered = TieredStore(tmp_path / "local",
                         _remote(LoopbackTransport(remote_dir)))
    assert tiered.load_json(key) == {"v": 1}
    assert tiered.remote_hits == 1 and tiered.backfills == 1
    assert (tiered.local.quarantine_dir / f"{key}.json").read_bytes() == \
        b"torn local copy"
    assert tiered.local.load_json(key) == {"v": 1}
    assert tiered.load_json(key) == {"v": 1}
    assert tiered.remote_hits == 1 and tiered.backfills == 1


def test_tiered_store_degrades_and_syncs(tmp_path):
    remote_dir = tmp_path / "remote"
    # Ops 2+ are partitioned: the first put's upload lands, everything
    # after journals.  (Each put_object = 3 transport ops.)
    schedule = FaultSchedule(windows=(FaultWindow(3, 10**9, "connect"),))
    flaky = FlakyTransport(LoopbackTransport(remote_dir), schedule)
    tiered = TieredStore(tmp_path / "local", _remote(flaky))
    k1, k2, k3 = (stable_key({"d": i}) for i in range(3))
    tiered.put_json(k1, {"v": 1})  # replicated before the partition
    tiered.put_json(k2, {"v": 2})  # journaled
    tiered.put_arrays(k3, {"x": np.arange(4)})  # journaled
    assert tiered.degraded_writes == 2
    assert sorted(e.key for e in tiered.pending_uploads()) == sorted([k2, k3])
    # Reads still served locally; campaigns keep running.
    assert tiered.load_json(k2) == {"v": 2}
    remote_view = _remote(LoopbackTransport(remote_dir))
    assert remote_view.load_json(k1) == {"v": 1}
    assert remote_view.load_json(k2) is None
    # Remote heals: drain the journal through a clean transport.
    healed = TieredStore(tmp_path / "local",
                         _remote(LoopbackTransport(remote_dir)))
    stats = healed.sync()
    assert sorted(stats["uploaded"]) == sorted([k2, k3])
    assert stats["remaining"] == []
    assert healed.pending_uploads() == []
    assert remote_view.load_json(k2) == {"v": 2}
    # The drain is idempotent: a second sync is a no-op, and replaying
    # a stale journal only skips already-synced keys.
    assert healed.sync() == {"uploaded": [], "skipped": [],
                             "missing_local": [], "remaining": []}
    healed.journal.append(healed.local.entry(k2))
    assert healed.sync()["skipped"] == [k2]


def test_tiered_sync_keeps_journal_while_remote_is_down(tmp_path):
    schedule = FaultSchedule(windows=(FaultWindow(0, 10**9, "connect"),))
    flaky = FlakyTransport(LoopbackTransport(tmp_path / "remote"), schedule)
    tiered = TieredStore(tmp_path / "local", _remote(flaky))
    key = stable_key({"down": 1})
    tiered.put_json(key, {"v": 1})
    assert [e.key for e in tiered.pending_uploads()] == [key]
    stats = tiered.sync()  # still partitioned
    assert stats["remaining"] == [key]
    assert [e.key for e in tiered.pending_uploads()] == [key]  # kept


def test_pending_journal_survives_torn_tail(tmp_path):
    journal = PendingUploadJournal(tmp_path / "pending_uploads.jsonl")
    entry = ManifestEntry(key="k1", kind="json", filename="k1.json",
                          digest="0" * 64)
    journal.append(entry)
    journal.append(entry)  # duplicate appends dedup on read
    with open(journal.path, "a") as handle:
        handle.write('{"key": "torn')  # crash mid-append
    pending = journal.pending()
    assert [e.key for e in pending] == ["k1"]
    journal.rewrite([])
    assert not journal.path.exists()


def test_build_store_round_trips_every_flavour(tmp_path):
    local = ArtifactStore(tmp_path / "local")
    remote = _remote(LoopbackTransport(tmp_path / "remote"))
    tiered = TieredStore(local, remote)
    key = stable_key({"cfg": 1})
    tiered.put_json(key, {"v": 1})
    for store in (local, remote, tiered):
        rebuilt = build_store(store.spawn_config())
        assert type(rebuilt) is type(store)
        assert rebuilt.load_json(key) == {"v": 1}
    assert build_store(None) is None
    assert build_store(tiered) is tiered
    assert isinstance(build_store(str(tmp_path / "local")), ArtifactStore)
    with pytest.raises(ValueError):
        build_store({"kind": "martian"})


# -- CLI -----------------------------------------------------------------------


def test_cli_store_sync_drains_and_reports(tmp_path, capsys):
    remote_dir = tmp_path / "remote"
    schedule = FaultSchedule(windows=(FaultWindow(0, 10**9, "connect"),))
    flaky = FlakyTransport(LoopbackTransport(remote_dir), schedule)
    tiered = TieredStore(tmp_path / "local", _remote(flaky))
    key = stable_key({"cli": "sync"})
    tiered.put_json(key, {"v": 1})
    assert len(tiered.pending_uploads()) == 1

    assert main(["store", "sync", str(tmp_path / "local"),
                 "--remote", str(remote_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 uploaded" in out and "journal drained" in out
    assert _remote(LoopbackTransport(remote_dir)).load_json(key) == {"v": 1}
    # Idempotent re-run.
    assert main(["store", "sync", str(tmp_path / "local"),
                 "--remote", str(remote_dir)]) == 0
    assert main(["store", "sync", str(tmp_path / "nope"),
                 "--remote", str(remote_dir)]) == 2
