"""Locks, the put lock order and the shared retry/backoff policy."""

from __future__ import annotations

import errno
import multiprocessing
import time

import pytest

from repro.campaigns.supervisor import SupervisorPolicy
from repro.store import (
    ArtifactStore,
    FileLock,
    LockTimeout,
    RetryPolicy,
    backoff_delay_s,
    is_transient_os_error,
    stable_key,
)


# -- FileLock -----------------------------------------------------------------


def _hold_exclusive(path, acquired, release):
    lock = FileLock(path)
    lock.acquire(shared=False, timeout_s=10.0)
    acquired.set()
    release.wait(30.0)
    lock.unlock()


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
    mine.unlock()


def _hold_shared(path, acquired, release):
    lock = FileLock(path)
    lock.acquire(shared=True, timeout_s=10.0)
    acquired.set()
    release.wait(30.0)
    lock.unlock()


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
        reader.unlock()
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
    holder.kill()  # SIGKILL: no unlock() ever runs
    holder.join(10.0)
    mine = FileLock(path)
    mine.acquire(shared=False, timeout_s=5.0)  # kernel dropped the lock
    mine.unlock()


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


def _put_after_key_lock(store_root, key):
    ArtifactStore(store_root).put_json(key, {"v": "waited"})


def test_writer_waiting_for_a_key_lock_holds_the_shared_store_lock(
        tmp_path):
    """A put takes the shared store lock before its key lock, so a
    writer queued on a busy key already keeps maintenance out: while it
    waits, the exclusive store lock cannot be had, and gc may delete
    key-lock files without checking for waiters."""
    store_root = tmp_path / "store"
    maintainer = ArtifactStore(store_root)
    key = stable_key({"queued": "writer"})
    key_lock = FileLock(maintainer.locks_dir / f"key.{key}.lock")
    key_lock.acquire()
    ctx = multiprocessing.get_context()
    writer = ctx.Process(target=_put_after_key_lock, args=(store_root, key))
    writer.start()
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                with maintainer._store_lock(shared=False, wait_s=0.05):
                    pass
            except LockTimeout:
                break  # the queued writer holds the shared side
            time.sleep(0.01)
        else:
            pytest.fail("the writer never took the shared store lock")
        assert writer.is_alive() and key not in maintainer
        with pytest.raises(LockTimeout):
            with maintainer._store_lock(shared=False, wait_s=0.2):
                pass
    finally:
        key_lock.unlock()
        writer.join(30.0)
    assert writer.exitcode == 0
    with maintainer._store_lock(shared=False, wait_s=1.0):
        pass
    assert maintainer.get_json(key) == {"v": "waited"}


def test_a_put_takes_the_store_lock_once_then_its_key_lock(tmp_path,
                                                          monkeypatch):
    """One put, one shared store acquisition: the key lock is taken
    inside it, the manifest entry is written while both are held, and
    the key lock is let go first."""
    events = []
    try_acquire, unlock = FileLock.try_acquire, FileLock.unlock

    def logged_try_acquire(self, shared=False):
        acquired = try_acquire(self, shared=shared)
        if acquired:
            events.append(("lock", self.path.name, shared))
        return acquired

    def logged_unlock(self):
        if self.held:
            events.append(("unlock", self.path.name))
        unlock(self)

    monkeypatch.setattr(FileLock, "try_acquire", logged_try_acquire)
    monkeypatch.setattr(FileLock, "unlock", logged_unlock)
    store = ArtifactStore(tmp_path / "store")
    record = store._record

    def logged_record(entry):
        events.append(("manifest", entry.key))
        return record(entry)

    monkeypatch.setattr(store, "_record", logged_record)
    key = stable_key({"put": "lock order"})
    store.put_json(key, {"v": 1})
    key_lock = f"key.{key}.lock"
    assert events == [
        ("lock", "store.turnstile", False),
        ("lock", "store.lock", True),
        ("unlock", "store.turnstile"),
        ("lock", key_lock, False),
        ("manifest", key),
        ("unlock", key_lock),
        ("unlock", "store.lock"),
    ]
    assert store.get_json(key) == {"v": 1}


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

    policy = RetryPolicy(attempts=4, base_s=0.0)
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


def _report_retry_delay(store, conn):
    conn.send(store.retry.delay_s(1))
    conn.close()


def test_forked_processes_sharing_a_store_retry_apart(tmp_path):
    """The store's jitter token is the pid of the process that retries:
    two forks that inherited one store back off by different delays
    after a transient blip, and neither by the parent's."""
    store = ArtifactStore(tmp_path / "store")
    ctx = multiprocessing.get_context("fork")
    delays = []
    for _ in range(2):
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_report_retry_delay, args=(store, send))
        child.start()
        send.close()
        delays.append(receive.recv())
        child.join(timeout=30.0)
        assert child.exitcode == 0
    own = store.retry.delay_s(1)
    assert len({*delays, own}) == 3, (delays, own)


def test_retryable_vs_fatal_classification():
    """The store's retry classifier: only ``EAGAIN``-class OS blips
    retry.  Misses (KeyError), corruption (StoreIntegrityError), a
    missing file and a permission error never do — a miss is an answer
    and corrupt bytes stay corrupt."""
    from repro.store import StoreIntegrityError, is_transient_os_error

    # Retryable: repeating can change the outcome.
    assert is_transient_os_error(OSError(errno.EAGAIN, "busy"))
    assert is_transient_os_error(OSError(errno.EINTR, "interrupted"))
    # Never retryable.
    assert not is_transient_os_error(KeyError("miss"))
    assert not is_transient_os_error(LookupError("miss"))
    assert not is_transient_os_error(StoreIntegrityError("digest mismatch"))
    assert not is_transient_os_error(ValueError("bad payload"))
    assert not is_transient_os_error(FileNotFoundError(errno.ENOENT, "gone"))
    assert not is_transient_os_error(
        PermissionError(errno.EACCES, "denied"))


def test_retry_policy_with_classification_bounds_and_fatals():
    from repro.store import StoreIntegrityError

    policy = RetryPolicy(attempts=4, base_s=0.0)
    calls = {"n": 0}

    def fails_with(error):
        def operation():
            calls["n"] += 1
            raise error
        return operation

    for fatal in (KeyError("miss"), StoreIntegrityError("digest mismatch"),
                  FileNotFoundError(errno.ENOENT, "gone"),
                  PermissionError(errno.EACCES, "denied")):
        calls["n"] = 0
        with pytest.raises(type(fatal)):
            policy.call(fails_with(fatal))
        assert calls["n"] == 1, fatal  # never retried

    calls["n"] = 0

    def interrupted_then_ok():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError(errno.EINTR, "interrupted")
        return "ok"

    assert policy.call(interrupted_then_ok) == "ok"
    assert calls["n"] == 3

    calls["n"] = 0
    with pytest.raises(OSError):
        policy.call(fails_with(OSError(errno.EAGAIN, "busy forever")))
    assert calls["n"] == 4  # bounded, then the last failure propagates
