"""Locks, leases and the shared retry/backoff policy."""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import time

import pytest

from repro.campaigns.supervisor import SupervisorPolicy
from repro.store import (
    ArtifactStore,
    FileLock,
    LockTimeout,
    RetryPolicy,
    WriterLease,
    backoff_delay_s,
    break_stale_leases,
    is_transient_os_error,
    list_leases,
    live_foreign_leases,
)


# -- FileLock -----------------------------------------------------------------


def _hold_exclusive(path, acquired, release):
    lock = FileLock(path)
    lock.acquire(shared=False, timeout_s=10.0)
    acquired.set()
    release.wait(30.0)
    lock.release()


def test_exclusive_lock_excludes_other_processes(tmp_path):
    path = tmp_path / "store.lock"
    ctx = multiprocessing.get_context()
    acquired, release = ctx.Event(), ctx.Event()
    holder = ctx.Process(target=_hold_exclusive,
                         args=(path, acquired, release))
    holder.start()
    try:
        assert acquired.wait(10.0)
        mine = FileLock(path)
        assert not mine.try_acquire(shared=False)
        assert not mine.try_acquire(shared=True)
        with pytest.raises(LockTimeout):
            mine.acquire(shared=False, timeout_s=0.2)
    finally:
        release.set()
        holder.join(10.0)
    # Released by the holder: now acquirable.
    mine = FileLock(path)
    assert mine.try_acquire(shared=False)
    mine.release()


def _hold_shared(path, acquired, release):
    lock = FileLock(path)
    lock.acquire(shared=True, timeout_s=10.0)
    acquired.set()
    release.wait(30.0)
    lock.release()


def test_shared_locks_coexist_and_block_exclusive(tmp_path):
    path = tmp_path / "store.lock"
    ctx = multiprocessing.get_context()
    acquired, release = ctx.Event(), ctx.Event()
    holder = ctx.Process(target=_hold_shared, args=(path, acquired, release))
    holder.start()
    try:
        assert acquired.wait(10.0)
        reader = FileLock(path)
        assert reader.try_acquire(shared=True)  # shared + shared: fine
        reader.release()
        writer = FileLock(path)
        assert not writer.try_acquire(shared=False)  # shared blocks excl
    finally:
        release.set()
        holder.join(10.0)


def test_kernel_releases_fcntl_lock_when_holder_is_killed(tmp_path):
    path = tmp_path / "store.lock"
    ctx = multiprocessing.get_context()
    acquired, release = ctx.Event(), ctx.Event()
    holder = ctx.Process(target=_hold_exclusive,
                         args=(path, acquired, release))
    holder.start()
    assert acquired.wait(10.0)
    holder.kill()  # SIGKILL: no release() ever runs
    holder.join(10.0)
    mine = FileLock(path)
    mine.acquire(shared=False, timeout_s=5.0)  # kernel dropped the lock
    mine.release()


def test_lock_is_not_reentrant_and_context_managers_release(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    with lock.holding():
        assert lock.held
        with pytest.raises(RuntimeError):
            lock.try_acquire()
    assert not lock.held
    with lock.holding(shared=True):
        assert lock.held
    assert not lock.held


#: Passes the looping maintainer makes before it stops re-taking the lock.
LOOP_PASSES = 500


def _loop_exclusive(store_root, passes, looping, stop):
    """Take and release the exclusive store lock back to back, as a
    maintenance loop does, holding it for a short sweep each pass."""
    store = ArtifactStore(store_root)
    while passes.value < LOOP_PASSES and not stop.is_set():
        with store._store_lock(shared=False):
            time.sleep(0.002)
        passes.value += 1
        if passes.value == 5:
            looping.set()


def test_waiting_writer_is_not_starved_by_a_looping_maintainer(tmp_path):
    """A waiting shared acquirer holds its place: it gets the store lock
    while the exclusive loop is still running, not once it has ended."""
    store_root = tmp_path / "store"
    ctx = multiprocessing.get_context()
    passes, looping, stop = ctx.Value("i", 0), ctx.Event(), ctx.Event()
    maintainer = ctx.Process(target=_loop_exclusive,
                             args=(store_root, passes, looping, stop))
    maintainer.start()
    try:
        assert looping.wait(30.0)
        writer = ArtifactStore(store_root)
        with writer._store_lock(shared=True):
            passes_when_held = passes.value
        assert passes_when_held < LOOP_PASSES, (
            "the writer got the store lock only after the exclusive "
            "loop had ended")
    finally:
        stop.set()
        maintainer.join(30.0)
    assert maintainer.exitcode == 0


def test_turnstile_is_released_once_the_store_lock_is_held(tmp_path):
    """Shared writers still hold the store lock together: each one lets
    the turnstile go as soon as its own acquisition lands."""
    holder = ArtifactStore(tmp_path / "store")
    other = ArtifactStore(tmp_path / "store")
    with holder._store_lock(shared=True):
        with other._store_lock(shared=True, wait_s=1.0):
            pass
    assert sorted(path.name for path in holder.locks_dir.iterdir()) == [
        "store.lock", "store.turnstile"]


def test_timed_out_waiter_gives_the_turnstile_back(tmp_path):
    """An exclusive waiter that times out must not keep the turnstile,
    or every later writer would queue behind a waiter that left."""
    holder = ArtifactStore(tmp_path / "store")
    maintainer = ArtifactStore(tmp_path / "store")
    writer = ArtifactStore(tmp_path / "store")
    with holder._store_lock(shared=True):
        with pytest.raises(LockTimeout):
            with maintainer._store_lock(shared=False, wait_s=0.2):
                pass
        with writer._store_lock(shared=True, wait_s=1.0):
            pass
    with maintainer._store_lock(shared=False, wait_s=1.0):
        pass


def test_unlocked_store_takes_no_store_lock(tmp_path):
    """``locking=False`` bypasses the store lock and its turnstile: no
    lock file is created, and a held exclusive lock does not block it."""
    locked = ArtifactStore(tmp_path / "store")
    unlocked = ArtifactStore(tmp_path / "store", locking=False)
    with locked._store_lock(shared=False):
        with unlocked._store_lock(shared=False, wait_s=0.0):
            pass
    bare = ArtifactStore(tmp_path / "bare", locking=False)
    with bare._store_lock(shared=False):
        pass
    assert not (bare.locks_dir / "store.lock").exists()
    assert not (bare.locks_dir / "store.turnstile").exists()


# -- retry / backoff ----------------------------------------------------------


def test_backoff_formula_matches_supervisor_schedule():
    """One formula for the whole repo: the supervisor's pinned backoff
    schedule and the shared helper must agree bit-for-bit."""
    policy = SupervisorPolicy(retry_backoff_s=0.5, seed=42)
    for cell_index in (0, 3, 17):
        for attempt in (1, 2, 3, 4):
            expected = backoff_delay_s(0.5, attempt,
                                       token=f"42:{cell_index}")
            assert policy.backoff_s(cell_index, attempt) == expected
    # Determinism and exponential envelope.
    assert backoff_delay_s(0.5, 1, "t") == backoff_delay_s(0.5, 1, "t")
    assert 0.25 <= backoff_delay_s(0.5, 1, "t") <= 0.75
    assert 1.0 <= backoff_delay_s(0.5, 3, "t") <= 3.0
    assert backoff_delay_s(0.0, 5, "t") == 0.0
    assert backoff_delay_s(10.0, 5, "t", cap_s=0.1) == 0.1


def test_retry_policy_retries_transient_errors_only():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError(errno.EAGAIN, "try again")
        return "ok"

    policy = RetryPolicy(attempts=4, base_s=0.0, token="test")
    assert policy.call(flaky) == "ok"
    assert calls["n"] == 3

    def always_enoent():
        raise FileNotFoundError(errno.ENOENT, "gone")

    with pytest.raises(FileNotFoundError):
        policy.call(always_enoent)  # non-transient: no retries

    calls["n"] = 0

    def always_eagain():
        calls["n"] += 1
        raise OSError(errno.EAGAIN, "busy forever")

    with pytest.raises(OSError):
        policy.call(always_eagain)
    assert calls["n"] == 4  # bounded

    assert is_transient_os_error(OSError(errno.EBUSY, "x"))
    assert not is_transient_os_error(ValueError("x"))
    assert not is_transient_os_error(OSError(errno.EACCES, "x"))


# -- leases -------------------------------------------------------------------


def test_lease_lifecycle(tmp_path):
    leases_dir = tmp_path / "leases"
    with WriterLease(leases_dir, owner="test", ttl_s=60.0) as lease:
        infos = list_leases(leases_dir)
        assert len(infos) == 1
        assert infos[0].pid == os.getpid()
        assert infos[0].owner == "test"
        assert infos[0].is_live()
        # Own leases are excluded from the foreign-live view.
        assert live_foreign_leases(leases_dir) == []
        assert live_foreign_leases(leases_dir, ignore_pid=-1) == infos
        # A fresh heartbeat is a no-op write-wise (cheap), force rewrites.
        before = lease.path.read_bytes()
        lease.heartbeat()
        assert lease.path.read_bytes() == before
        lease.heartbeat(force=True)
    assert list_leases(leases_dir) == []


def test_stale_leases_are_broken(tmp_path):
    leases_dir = tmp_path / "leases"
    leases_dir.mkdir()
    # Expired heartbeat (live pid): stale.
    expired = WriterLease(leases_dir, owner="expired", ttl_s=-1.0).acquire()
    # Dead pid (unexpired): stale.
    dead = leases_dir / "host-999999999-1.json"
    dead.write_text(json.dumps({"pid": 999999999, "host": "nowhere... no",
                                "owner": "dead",
                                "expires_at": time.time() + 3600}))
    # But same-host dead pid:
    import socket
    dead_local = leases_dir / f"{socket.gethostname()}-999999998-2.json"
    dead_local.write_text(json.dumps({
        "pid": 999999998, "host": socket.gethostname(), "owner": "deadpid",
        "expires_at": time.time() + 3600}))
    # Torn lease file: swept too.
    torn = leases_dir / "torn.json"
    torn.write_text("{not json")
    # Live lease: kept.
    live = WriterLease(leases_dir, owner="live", ttl_s=3600.0).acquire()

    broken = break_stale_leases(leases_dir)
    names = {info.owner for info in broken}
    assert names == {"expired", "deadpid"}
    assert not expired.path.exists()
    assert not dead_local.exists()
    assert not torn.exists()
    assert dead.exists()  # off-host + unexpired: not provably stale
    assert live.path.exists()
    live.release()


def test_broken_lease_resurrects_on_next_heartbeat(tmp_path):
    leases_dir = tmp_path / "leases"
    lease = WriterLease(leases_dir, ttl_s=60.0).acquire()
    lease.path.unlink()  # a maintenance pass broke it
    lease.heartbeat(force=True)
    assert lease.path.exists()
    lease.release()


def test_retryable_vs_fatal_classification():
    """Satellite pin: the explicit retryable/fatal split of store IO.

    Connection resets and timeouts retry; misses (KeyError) and
    corruption (StoreIntegrityError) never do — a miss is an answer and
    corrupt bytes stay corrupt.
    """
    from repro.store import StoreIntegrityError, is_retryable_error

    # Retryable: repeating can change the outcome.
    assert is_retryable_error(ConnectionResetError("peer reset"))
    assert is_retryable_error(ConnectionError("refused"))
    assert is_retryable_error(BrokenPipeError("pipe"))
    assert is_retryable_error(TimeoutError("budget exceeded"))
    assert is_retryable_error(OSError(errno.EAGAIN, "busy"))
    assert is_retryable_error(OSError(errno.EINTR, "interrupted"))
    # Never retryable.
    assert not is_retryable_error(KeyError("miss"))
    assert not is_retryable_error(LookupError("miss"))
    assert not is_retryable_error(StoreIntegrityError("digest mismatch"))
    assert not is_retryable_error(ValueError("bad payload"))
    assert not is_retryable_error(FileNotFoundError(errno.ENOENT, "gone"))
    assert not is_retryable_error(PermissionError(errno.EACCES, "denied"))


def test_retry_policy_with_classification_bounds_and_fatals():
    from repro.store import is_retryable_error

    policy = RetryPolicy(attempts=4, base_s=0.0, token="classify")
    calls = {"n": 0}

    def miss():
        calls["n"] += 1
        raise KeyError("miss")

    with pytest.raises(KeyError):
        policy.call(miss, retry_on=is_retryable_error)
    assert calls["n"] == 1  # a miss is never retried

    calls["n"] = 0

    def resets_then_ok():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionResetError("flaky network")
        return "ok"

    assert policy.call(resets_then_ok, retry_on=is_retryable_error) == "ok"
    assert calls["n"] == 3

    calls["n"] = 0

    def always_times_out():
        calls["n"] += 1
        raise TimeoutError("stuck")

    with pytest.raises(TimeoutError):
        policy.call(always_times_out, retry_on=is_retryable_error)
    assert calls["n"] == 4  # bounded, then the last failure propagates


# -- stale-lease breaking races -----------------------------------------------


def _race_breaker(leases_dir, start, results):
    start.wait(10.0)
    broken = break_stale_leases(leases_dir)
    results.put(sorted(info.owner for info in broken))


def test_stale_lease_breaking_race_exactly_one_winner(tmp_path):
    """Two maintenance processes contend for one dead writer's lease
    while a live writer keeps heartbeating: exactly one breaker wins
    the dead lease (the unlink race is the arbiter) and the live lease
    survives untouched."""
    import socket

    leases_dir = tmp_path / "leases"
    leases_dir.mkdir()
    # A dead writer: this host, a pid that cannot exist, unexpired —
    # provably stale by pid-liveness, not by clock.
    dead = leases_dir / f"{socket.gethostname()}-999999997-1.json"
    dead.write_text(json.dumps({
        "pid": 999999997, "host": socket.gethostname(),
        "owner": "deadwriter", "expires_at": time.time() + 3600}))
    live = WriterLease(leases_dir, owner="live", ttl_s=3600.0).acquire()

    ctx = multiprocessing.get_context()
    start, results = ctx.Event(), ctx.Queue()
    breakers = [ctx.Process(target=_race_breaker,
                            args=(leases_dir, start, results))
                for _ in range(2)]
    for proc in breakers:
        proc.start()
    start.set()
    # The racing heartbeat: the live writer refreshes its lease while
    # both breakers sweep the directory.
    deadline = time.monotonic() + 2.0
    while any(proc.is_alive() for proc in breakers) \
            and time.monotonic() < deadline:
        live.heartbeat(force=True)
        time.sleep(0.001)
    reported = [results.get(timeout=10.0) for _ in breakers]
    for proc in breakers:
        proc.join(10.0)

    wins = [owners for owners in reported if "deadwriter" in owners]
    assert len(wins) == 1, f"expected exactly one winner, got {reported}"
    assert not dead.exists()
    # The live, heartbeating lease was never broken.
    assert live.path.exists()
    assert {info.owner for info in list_leases(leases_dir)} == {"live"}
    live.release()
