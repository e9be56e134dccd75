"""Multi-process store concurrency: races, maintenance, kill -9, leases.

The acceptance test of this suite runs real shard worker *processes*
sharing one store directory against a concurrent gc/fsck maintenance
loop, and requires the merged campaign rows to be bit-identical to a
clean serial run with zero cells lost to maintenance races.  The
narrower tests script each race individually with the
:class:`~chaos.stores.WindowFaultStore` /
:class:`~chaos.stores.SyncFlag` primitives: two writers racing
one key, ``gc`` inside a writer's object→manifest window, kill -9
mid-``put``, and a dead lease holder.

When ``REPRO_STRESS_DIR`` is set (the CI stress job sets it), every
store directory is created under it so a failing run's store state is
uploaded as a build artifact.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignResult,
    CampaignSpec,
    merge_campaign_results,
)
from repro.store import ArtifactStore, stable_key
from chaos import SyncFlag, WindowFaultStore

#: Small but multi-chunk campaign grid: 2 die populations x 2 metrics.
SPEC_KWARGS = dict(
    name="shared-store", trojans=("HT1",), die_counts=(2, 3),
    metrics=("local_maxima_sum", "l1"), seed=13,
    max_retries=1, retry_backoff_s=0.01,
)

SHARDS = 3


def _stress_root(tmp_path, name):
    """Store parent dir — under $REPRO_STRESS_DIR when CI sets it, so a
    failing run's store state survives as an uploadable artifact."""
    base = os.environ.get("REPRO_STRESS_DIR")
    if base:
        root = Path(base) / f"{name}-{os.getpid()}"
        root.mkdir(parents=True, exist_ok=True)
        return root
    return tmp_path


# -- two writers racing one key -----------------------------------------------


def _racing_writer(store_root, key, ready, go, done):
    store = ArtifactStore(store_root)
    ready.set()
    go.wait(30.0)
    # Identical payload from both writers: content-addressed producers
    # are deterministic, so a same-key race writes the same bytes.
    store.put_json(key, {"value": [1, 2, 3], "who": "deterministic"})
    store.release_lease()
    done.set()


def test_two_writers_racing_the_same_key(tmp_path):
    store_root = _stress_root(tmp_path, "race") / "store"
    key = stable_key({"race": "same-key"})
    ctx = multiprocessing.get_context()
    ready = [ctx.Event() for _ in range(2)]
    done = [ctx.Event() for _ in range(2)]
    go = ctx.Event()
    writers = [ctx.Process(target=_racing_writer,
                           args=(store_root, key, ready[i], go, done[i]))
               for i in range(2)]
    for writer in writers:
        writer.start()
    for event in ready:
        assert event.wait(10.0)
    go.set()  # both writers start their put as close together as possible
    for writer in writers:
        writer.join(30.0)
    assert all(event.is_set() for event in done)
    assert all(writer.exitcode == 0 for writer in writers)

    store = ArtifactStore(store_root)
    assert store.get_json(key) == {"value": [1, 2, 3],
                                   "who": "deterministic"}
    report = store.fsck()
    assert report.clean()
    assert store.gc()["orphan_objects"] == 0


# -- gc scripted into the object→manifest window ------------------------------


def _window_writer(store_root, key, window_flag, proceed_flag):
    store = WindowFaultStore(store_root, window_flag=window_flag,
                             proceed_flag=proceed_flag)
    store.put_json(key, {"v": "windowed"})
    store.release_lease()


def test_gc_inside_write_window_keeps_leased_orphan(tmp_path):
    """The exact interleaving that loses work on an unprotected store:
    gc runs while a live writer has its object on disk but no manifest
    entry yet.  The lease must keep the orphan alive."""
    root = _stress_root(tmp_path, "window")
    store_root = root / "store"
    key = stable_key({"window": "gc"})
    window = SyncFlag(root / "window.flag")
    proceed = SyncFlag(root / "proceed.flag")
    ctx = multiprocessing.get_context()
    writer = ctx.Process(target=_window_writer,
                         args=(store_root, key, window.path, proceed.path))
    writer.start()
    try:
        assert window.wait(30.0), "writer never reached its write window"
        store = ArtifactStore(store_root)
        # The window is open: object present, manifest absent.
        assert (store.objects_dir / f"{key}.json").exists()
        assert not (store.manifest_dir / f"{key}.json").exists()

        removed = store.gc(wait_s=10.0)
        assert removed["orphan_objects"] == 0
        assert removed["skipped_leased"] >= 1
        assert len(removed["live_leases"]) == 1
        assert (store.objects_dir / f"{key}.json").exists()

        report = store.fsck()
        assert f"{key}.json" in report.leased_orphans
        assert report.orphan_objects == []
    finally:
        proceed.set()
        writer.join(30.0)
    assert writer.exitcode == 0
    store = ArtifactStore(store_root)
    assert store.get_json(key) == {"v": "windowed"}
    assert store.fsck().clean()


# -- kill -9 mid-put ----------------------------------------------------------


def _doomed_writer(store_root, key, window_flag):
    store = WindowFaultStore(store_root, window_flag=window_flag,
                             kill_in_window=True)
    store.put_json(key, {"v": "never recorded"})  # dies inside


def test_kill9_mid_put_recovers_via_stale_lease_and_fsck(tmp_path):
    root = _stress_root(tmp_path, "kill9")
    store_root = root / "store"
    key = stable_key({"kill9": "mid-put"})
    window = SyncFlag(root / "window.flag")
    ctx = multiprocessing.get_context()
    writer = ctx.Process(target=_doomed_writer,
                         args=(store_root, key, window.path))
    writer.start()
    writer.join(30.0)
    assert writer.exitcode == 175  # died inside the window
    assert window.is_set()

    store = ArtifactStore(store_root)
    # The dead writer left an orphan object and a lease with a dead pid.
    assert (store.objects_dir / f"{key}.json").exists()
    assert not (store.manifest_dir / f"{key}.json").exists()
    assert len(store.leases()) == 1

    report = store.fsck(repair=True, wait_s=10.0)
    assert len(report.broken_leases) == 1  # dead pid = stale, broken
    assert report.orphan_objects == [f"{key}.json"]
    assert not (store.objects_dir / f"{key}.json").exists()
    assert store.fsck(repair=True).clean()  # idempotent second pass
    # No unreadable hits anywhere: the key is a clean miss.
    assert store.load_json(key) is None


def _killed_campaign_worker(spec_dict, store_root, window_flag):
    spec = CampaignSpec.from_dict(spec_dict)
    engine = CampaignEngine(spec, store=store_root)
    # Die inside the THIRD store write's window: earlier writes are
    # fully recorded (resumable), one object is torn off mid-put.
    engine.store = WindowFaultStore(store_root, window_flag=window_flag,
                                    kill_in_window=True, skip_writes=2)
    engine.run()


def test_killed_worker_campaign_resumes_only_missing_cells(tmp_path):
    """kill -9 during a campaign's store write: after lease breaking and
    fsck --repair, a resumed run computes only the missing cells."""
    root = _stress_root(tmp_path, "resume")
    store_root = root / "store"
    spec = CampaignSpec(**SPEC_KWARGS)

    ctx = multiprocessing.get_context()
    window = SyncFlag(root / "window.flag")
    crasher = ctx.Process(target=_killed_campaign_worker,
                          args=(spec.to_dict(), store_root, window.path))
    crasher.start()
    crasher.join(120.0)
    assert crasher.exitcode == 175
    assert window.is_set()

    store = ArtifactStore(store_root)
    report = store.fsck(repair=True, wait_s=10.0)
    assert len(report.broken_leases) == 1
    assert len(report.orphan_objects) >= 1  # the torn-off mid-put object
    assert store.fsck().clean()

    # Which cells still need computing, per the store's own records.
    engine = CampaignEngine(spec, store=store_root)
    missing = {cell.index for cell in spec.grid()
               if engine.load_cell_result(cell) is None}
    assert missing, "the crashed run should not have completed the grid"

    computed = []
    original = engine.run_cell

    def counting_run_cell(cell):
        computed.append(cell.index)
        return original(cell)

    engine.run_cell = counting_run_cell
    result = engine.run()
    assert all(row.status == "ok" for row in result.cells)
    # Exactly the missing cells were recomputed — nothing recorded
    # before the crash ran again.
    assert set(computed) == missing
    assert len(computed) == len(missing)


# -- lease-holder death -------------------------------------------------------


def _dying_lease_holder(store_root, ready):
    store = ArtifactStore(store_root)
    store.acquire_lease(owner="doomed")
    ready.set()
    os._exit(0)  # exits without releasing: the lease file stays behind


def test_dead_lease_holders_are_broken_by_gc(tmp_path):
    store_root = _stress_root(tmp_path, "deadlease") / "store"
    store = ArtifactStore(store_root)
    store.put_json(stable_key({"keep": 1}), {"v": 1})
    store.release_lease()
    (store.objects_dir / "orphan.json").write_text("{}")

    ctx = multiprocessing.get_context()
    ready = ctx.Event()
    holder = ctx.Process(target=_dying_lease_holder,
                         args=(store_root, ready))
    holder.start()
    assert ready.wait(10.0)
    holder.join(10.0)

    # The dead holder's lease is broken, so the orphan is sweepable.
    removed = store.gc(wait_s=10.0)
    assert len(removed["broken_leases"]) == 1
    assert removed["live_leases"] == []
    assert removed["orphan_objects"] == 1
    assert not (store.objects_dir / "orphan.json").exists()


# -- CLI ----------------------------------------------------------------------


def _hold_store_shared(store_root, ready, release):
    from repro.store import FileLock

    lock = FileLock(Path(store_root) / "locks" / "store.lock")
    lock.acquire(shared=True, timeout_s=10.0)
    ready.set()
    release.wait(30.0)
    lock.release()


def test_cli_reports_busy_store_and_lists_leases(tmp_path, capsys):
    from repro.cli import main
    from repro.store.locks import HAVE_FCNTL

    store_root = tmp_path / "store"
    store = ArtifactStore(store_root)
    store.put_json(stable_key({"cli": 1}), {"v": 1})

    out = capsys.readouterr()
    assert main(["store", "leases", str(store_root)]) == 0
    out = capsys.readouterr().out
    assert "live" in out and str(os.getpid()) in out
    store.release_lease()

    if not HAVE_FCNTL:  # pragma: no cover - non-POSIX
        pytest.skip("busy-store path needs a real shared/exclusive lock")
    ctx = multiprocessing.get_context()
    ready, release = ctx.Event(), ctx.Event()
    holder = ctx.Process(target=_hold_store_shared,
                         args=(store_root, ready, release))
    holder.start()
    try:
        assert ready.wait(10.0)
        # A writer holds the shared side: exclusive maintenance times out.
        assert main(["store", "gc", str(store_root), "--wait", "0.2"]) == 3
        assert "store busy" in capsys.readouterr().err
        assert main(["store", "fsck", str(store_root), "--repair",
                     "--wait", "0.2"]) == 3
        assert "store busy" in capsys.readouterr().err
        # The lock-free audit still works while the store is busy.
        assert main(["store", "fsck", str(store_root)]) == 0
    finally:
        release.set()
        holder.join(10.0)
    assert main(["store", "gc", str(store_root), "--wait", "5"]) == 0


# -- acceptance: shard fleet vs maintenance loop ------------------------------


def _shard_worker(spec_dict, store_root, out_dir, shard_index):
    spec = CampaignSpec.from_dict(spec_dict)
    engine = CampaignEngine(spec, store=store_root)
    result = engine.run(shard=(shard_index, SHARDS))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"shard-{shard_index}.json").write_text(
        json.dumps(result.to_dict()))


def _maintenance_loop(store_root, stop_flag, log_path):
    """gc + fsck --repair in a tight loop until told to stop."""
    store = ArtifactStore(store_root)
    sweeps = 0
    destroyed = 0
    stop = SyncFlag(stop_flag)
    while not stop.is_set():
        try:
            removed = store.gc(wait_s=5.0)
            destroyed += removed["orphan_objects"] + removed["stray_tmp"]
            report = store.fsck(repair=True, wait_s=5.0)
            destroyed += len(report.orphan_objects)
            destroyed += len(report.corrupt)
            destroyed += len(report.missing_objects)
            sweeps += 1
        except TimeoutError:
            continue
    Path(log_path).write_text(json.dumps({"sweeps": sweeps,
                                          "destroyed": destroyed}))


def test_shard_fleet_with_concurrent_maintenance_is_bit_identical(tmp_path):
    """ISSUE 8 acceptance: >=3 real shard processes + a concurrent
    gc/fsck --repair loop over one shared store produce merged rows
    bit-identical to a clean serial run, with zero lost cells."""
    root = _stress_root(tmp_path, "acceptance")
    store_root = root / "store"
    out_dir = root / "shards"
    stop = SyncFlag(root / "stop.flag")
    log_path = root / "maintenance.json"
    spec = CampaignSpec(**SPEC_KWARGS)

    ctx = multiprocessing.get_context()
    maintenance = ctx.Process(target=_maintenance_loop,
                              args=(store_root, stop.path, log_path))
    maintenance.start()
    workers = [ctx.Process(target=_shard_worker,
                           args=(spec.to_dict(), store_root, out_dir, i))
               for i in range(SHARDS)]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(300.0)
            assert worker.exitcode == 0
    finally:
        stop.set()
        maintenance.join(60.0)
        if maintenance.is_alive():  # pragma: no cover - defensive
            maintenance.kill()
    assert maintenance.exitcode == 0
    log = json.loads(log_path.read_text())
    assert log["sweeps"] >= 1, "maintenance loop never completed a sweep"
    # Zero cells lost: no completed record or in-flight object was
    # destroyed by the concurrent maintenance.
    assert log["destroyed"] == 0

    shard_results = [
        CampaignResult.from_dict(json.loads(path.read_text()))
        for path in sorted(out_dir.glob("shard-*.json"))]
    assert len(shard_results) == SHARDS
    merged = merge_campaign_results(shard_results)
    assert all(row.status == "ok" for row in merged.cells)

    serial = CampaignEngine(CampaignSpec(**SPEC_KWARGS)).run()
    assert [row.to_dict() for row in merged.rows()] == \
        [row.to_dict() for row in serial.rows()]

    # The shared store ends verifiably clean once the fleet is gone.
    store = ArtifactStore(store_root)
    final = store.fsck(repair=True, wait_s=10.0)
    assert final.clean()
