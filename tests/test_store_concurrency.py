"""Multi-process store concurrency: races, maintenance, kill -9.

The acceptance test of this suite runs real shard worker *processes*
sharing one store directory against a concurrent gc/fsck maintenance
loop, and requires the merged campaign rows to be bit-identical to a
clean serial run with zero cells lost to maintenance races.  The
narrower tests script each race individually with the
:class:`~chaos.stores.WindowFaultStore` /
:class:`~chaos.stores.SyncFlag` primitives: two writers racing
one key, ``gc`` and ``fsck`` inside a writer's object→manifest window
and kill -9 mid-``put``.

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
from repro.campaigns import supervisor
from repro.store import ArtifactStore, LockTimeout, RetryPolicy, stable_key
from chaos import (
    OneShotTrigger,
    SyncFlag,
    TransientFaultStore,
    WindowFaultStore,
)

#: Small but multi-chunk campaign grid: 2 die populations x 2 metrics.
SPEC_KWARGS = dict(
    name="shared-store", trojans=("HT1",), die_counts=(2, 3),
    metrics=("local_maxima_sum", "l1"), seed=13, max_retries=1,
)


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """A near-zero retry backoff, so retries don't dominate the test
    wall-clock."""
    monkeypatch.setattr(supervisor, "RETRY_BACKOFF_S", 0.01)


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


def test_maintenance_waits_out_a_writer_inside_its_write_window(tmp_path):
    """The exact interleaving that loses work on an unprotected store:
    maintenance runs while a live writer has its object on disk but no
    manifest entry yet.  The writer holds the shared store lock across
    the window, so gc and fsck time out and remove nothing."""
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

        with pytest.raises(LockTimeout):
            store.gc(wait_s=0.2)
        with pytest.raises(LockTimeout):
            store.fsck(wait_s=0.2)
        with pytest.raises(LockTimeout):
            store.fsck(repair=True, wait_s=0.2)
        assert (store.objects_dir / f"{key}.json").exists()
        assert not (store.manifest_dir / f"{key}.json").exists()
    finally:
        proceed.set()
        writer.join(30.0)
    assert writer.exitcode == 0
    store = ArtifactStore(store_root)
    assert store.get_json(key) == {"v": "windowed"}
    assert store.fsck(wait_s=10.0).clean()


# -- kill -9 mid-put ----------------------------------------------------------


def _doomed_writer(store_root, key, window_flag):
    store = WindowFaultStore(store_root, window_flag=window_flag,
                             kill_in_window=True)
    store.put_json(key, {"v": "never recorded"})  # dies inside


def test_kill9_mid_put_recovers_via_fsck(tmp_path):
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
    # The dead writer left an orphan object; the kernel dropped its
    # locks, so maintenance gets the store at once.
    assert (store.objects_dir / f"{key}.json").exists()
    assert not (store.manifest_dir / f"{key}.json").exists()

    report = store.fsck(repair=True, wait_s=10.0)
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
    """kill -9 during a campaign's store write: after fsck --repair, a
    resumed run computes only the missing cells."""
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


def test_one_shot_trigger_fires_exactly_once_after_skips():
    """The trigger that picks :class:`WindowFaultStore`'s one window."""
    trigger = OneShotTrigger(skip=2)
    assert [trigger.should_fire() for _ in range(5)] == [
        False, False, True, False, False]
    assert trigger.fired


# -- CLI ----------------------------------------------------------------------


def _hold_store_shared(store_root, ready, release):
    from repro.store import FileLock

    lock = FileLock(Path(store_root) / "locks" / "store.lock")
    lock.acquire(shared=True, timeout_s=10.0)
    ready.set()
    release.wait(30.0)
    lock.unlock()


def test_cli_reports_busy_store(tmp_path, capsys):
    from repro.cli import main

    store_root = tmp_path / "store"
    store = ArtifactStore(store_root)
    store.put_json(stable_key({"cli": 1}), {"v": 1})

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
        # The audit takes the exclusive lock too: it reports a busy
        # store rather than a writer's in-flight object as an orphan.
        assert main(["store", "fsck", str(store_root), "--wait",
                     "0.2"]) == 3
        assert "store busy" in capsys.readouterr().err
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
    """gc and fsck --repair, alternating, in a tight loop until told to
    stop: each pass takes the exclusive store lock once."""
    store = ArtifactStore(store_root)
    passes = {"gc": 0, "fsck": 0}
    destroyed = 0
    stop = SyncFlag(stop_flag)
    while not stop.is_set():
        try:
            if passes["gc"] <= passes["fsck"]:
                removed = store.gc(wait_s=5.0)
                destroyed += removed["orphan_objects"] + removed["stray_tmp"]
                passes["gc"] += 1
            else:
                report = store.fsck(repair=True, wait_s=5.0)
                destroyed += len(report.orphan_objects)
                destroyed += len(report.corrupt)
                destroyed += len(report.missing_objects)
                passes["fsck"] += 1
        except TimeoutError:
            continue
    Path(log_path).write_text(json.dumps({**passes,
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
    assert log["gc"] >= 1, "maintenance loop never completed a gc pass"
    assert log["fsck"] >= 1, "maintenance loop never completed a repair"
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


# -- one store directory, many clients ----------------------------------------


def test_supervised_workers_share_one_store(tmp_path):
    """Supervised workers are forks of the engine and write through its
    store; what they write, a fresh engine on the same directory reads
    back as complete cells."""
    root = _stress_root(tmp_path, "workers")
    store_root = root / "store"
    result = CampaignEngine(CampaignSpec(workers=2, **SPEC_KWARGS),
                            store=store_root).run()
    assert all(row.status == "ok" for row in result.cells)

    serial = CampaignEngine(CampaignSpec(**SPEC_KWARGS)).run()
    assert [row.to_dict() for row in result.rows()] == \
        [row.to_dict() for row in serial.rows()]
    engine = CampaignEngine(CampaignSpec(**SPEC_KWARGS), store=store_root)
    for cell in engine.spec.grid():
        assert engine.load_cell_result(cell) is not None, \
            f"cell {cell.index} written by a worker is missing"
    assert ArtifactStore(store_root).fsck().clean()


def test_sharded_campaign_through_transient_store_faults(tmp_path):
    """Every shard's store handle hits ``EAGAIN`` blips on a fixed
    period in its reads, writes and listings; the retries absorb them,
    so the merged rows are bit-identical to a clean serial run and no
    cell is lost."""
    root = _stress_root(tmp_path, "transient")
    store_root = root / "store"
    retry = RetryPolicy(attempts=3, base_s=0.0)
    faults = {"read_bytes": 3, "_open_hashed": 3, "_atomic_write_bytes": 3,
              "_list_dir": 3}

    shard_results = []
    faulted = 0
    for shard_index in range(SHARDS):
        store = TransientFaultStore(store_root, faults, retry=retry)
        engine = CampaignEngine(CampaignSpec(**SPEC_KWARGS), store=store)
        result = engine.run(shard=(shard_index, SHARDS))
        assert all(row.status == "ok" for row in result.cells), \
            "a transient blip must be retried, never fail a cell"
        shard_results.append(result)
        faulted += sum(store.faulted.values())
    assert faulted > 0, "no blip fired: the fault periods are stale"

    merged = merge_campaign_results(shard_results)
    serial = CampaignEngine(CampaignSpec(**SPEC_KWARGS),
                            store=root / "serial-store").run()
    assert [row.to_dict() for row in merged.rows()] == \
        [row.to_dict() for row in serial.rows()]

    engine = CampaignEngine(CampaignSpec(**SPEC_KWARGS), store=store_root)
    for cell in engine.spec.grid():
        assert engine.load_cell_result(cell) is not None, \
            f"cell {cell.index} was lost to a transient fault"
    assert ArtifactStore(store_root).fsck().clean()
