"""Advisory file locks for shared artifact stores.

:class:`FileLock` gives cross-process mutual exclusion over one lock
file.  It is a thin wrapper over ``fcntl.flock`` — genuinely
shared/exclusive, released by the kernel the instant the holder dies
(including ``kill -9``), and invisible to readers that never lock.  The
store is POSIX-only: there is no lock-file fallback for hosts without
``fcntl``.

The store uses two lock levels (always acquired store-before-key):

* the **store lock** (``locks/store.lock``) — writers take the *shared*
  side around each file mutation; ``gc``/``fsck --repair`` take the
  *exclusive* side with a bounded wait, so destructive maintenance
  never overlaps an in-flight write.  Reads stay lock-free on the hit
  path: the digest check, not a lock, guarantees read integrity.
* a **per-key write lock** (``locks/key.<key>.lock``) — mutual
  exclusion between writers of one key, held across the whole
  object-then-manifest write pair.

Acquisition is a bounded non-blocking retry loop using the shared
backoff helper (:func:`repro.store.retry.backoff_delay_s`) with the pid
folded into the jitter token, so concurrent waiters spread out instead
of retrying in lockstep.  :class:`LockTimeout` is raised when the
bounded wait expires — callers surface it ("store busy") rather than
deadlocking.
"""

from __future__ import annotations

import fcntl
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from .retry import backoff_delay_s

PathLike = Union[str, Path]

#: Default bounded wait for lock acquisition.
DEFAULT_LOCK_TIMEOUT_S = 30.0


class LockTimeout(TimeoutError):
    """A bounded lock wait expired — the resource stayed busy."""


class FileLock:
    """One advisory lock over one lock file (see module docstring).

    Not re-entrant and not thread-safe: one :class:`FileLock` instance
    per acquisition site.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def try_acquire(self, shared: bool = False) -> bool:
        """One non-blocking acquisition attempt."""
        if self.held:
            raise RuntimeError(f"lock {self.path} is already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        flags = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, flags | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def acquire(self, shared: bool = False,
                timeout_s: float = DEFAULT_LOCK_TIMEOUT_S) -> None:
        """Acquire with a bounded jittered-backoff wait.

        Raises :class:`LockTimeout` when ``timeout_s`` elapses without
        the lock becoming free.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        attempt = 0
        while True:
            if self.try_acquire(shared=shared):
                return
            attempt += 1
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                mode = "shared" if shared else "exclusive"
                raise LockTimeout(
                    f"could not acquire {mode} lock {self.path} within "
                    f"{timeout_s:.1f} s (another process holds it)"
                )
            delay = backoff_delay_s(0.002, attempt,
                                    token=f"{self.path}:{os.getpid()}",
                                    cap_s=0.1)
            time.sleep(min(delay, remaining))

    def release(self) -> None:
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None

    # -- context manager ----------------------------------------------------------

    @contextmanager
    def holding(self, shared: bool = False,
                timeout_s: float = DEFAULT_LOCK_TIMEOUT_S) -> Iterator[None]:
        self.acquire(shared=shared, timeout_s=timeout_s)
        try:
            yield
        finally:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "held" if self.held else "free"
        return f"FileLock({str(self.path)!r}, {state})"
