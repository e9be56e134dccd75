"""Fault-injecting artifact stores and a cross-process flag.

* :class:`ChaosStore` — tears its own write on cue: the ``truncate``
  fault of a :class:`~chaos.plan.FaultPlan`.  The worker completes the
  cell, records its completion entry, then the store cuts the object
  file in half *after the manifest entry is recorded* (the worst
  torn-write ordering: the store claims a hit whose payload is garbage)
  and the process dies, exercising the read-time digest verification
  and quarantine path;
* :class:`SyncFlag` — a file-based event for deterministic cross-process
  sequencing (no inherited ``multiprocessing`` primitives needed, so it
  works between arbitrary spawned/forked/exec'd processes);
* :class:`WindowFaultStore` — stops *inside the object→manifest
  window* of a ``put_*``: it raises a :class:`SyncFlag` the moment the
  object file exists without its manifest entry, then either waits for
  a proceed flag (letting the test script a concurrent
  ``gc``/``fsck --repair`` into the exact window) or dies with
  ``os._exit`` (a ``kill -9`` mid-``put``, leaving an orphan object);
* :class:`TransientFaultStore` — its file operations hit scripted
  ``EAGAIN`` blips, so the store's own retry policy is what stands
  between a blip and a failed read or write.

These are the building blocks of the multi-process stress suite
(``tests/test_store_concurrency.py``) and of the supervised chaos runs
(``tests/test_supervisor.py``).
"""

from __future__ import annotations

import errno
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Union

from repro.store import ArtifactStore, ManifestEntry, RetryPolicy

from .faults import OneShotTrigger

if TYPE_CHECKING:
    from .plan import FaultPlan


class FaultHookStore(ArtifactStore):
    """The shared hook dispatch of every fault-injecting store.

    Subclasses state only *what* their fault does, not where to splice
    it into the write path:

    * :meth:`_pre_record_hook` fires inside the object→manifest window
      (object bytes on disk, manifest entry not yet recorded);
    * :meth:`_post_put_hook` fires after a ``put_*`` fully completed
      (manifest entry recorded, digest verified state reachable).
    """

    def _pre_record_hook(self, key: str) -> None:
        """Called with the crash-consistency window open."""

    def _post_put_hook(self, entry: ManifestEntry) -> None:
        """Called after a completed ``put_*``."""

    def _record(self, entry: ManifestEntry) -> ManifestEntry:
        self._pre_record_hook(entry.key)
        return super()._record(entry)

    def put_object(self, entry: ManifestEntry, data: bytes) -> ManifestEntry:
        entry = super().put_object(entry, data)
        self._post_put_hook(entry)
        return entry


class ChaosStore(FaultHookStore):
    """An :class:`ArtifactStore` that tears its own writes on cue.

    When :meth:`arm`-ed on a coordinate carrying a ``truncate`` fault,
    the *next* write completes normally — manifest entry, digest and
    all — then the object file is truncated to half its size and the
    process dies.  The manifest now advertises a hit whose payload
    cannot match the recorded digest: exactly the torn-write state an
    unsynced filesystem can leave behind after a power cut.
    """

    def __init__(self, root, plan: "FaultPlan"):
        super().__init__(root)
        self.plan = plan
        self._armed = False

    def arm(self, cell_index: int, attempt: int) -> None:
        """Point the store at the coordinate about to execute."""
        injection = self.plan.lookup(cell_index, attempt)
        self._armed = injection is not None and injection.kind == "truncate"

    def _post_put_hook(self, entry: ManifestEntry) -> None:
        if not self._armed:
            return
        object_path = self.objects_dir / entry.filename
        data = object_path.read_bytes()
        with open(object_path, "wb") as handle:
            handle.write(data[:max(1, len(data) // 2)])
        os._exit(self.plan.truncate_exit_code)


class SyncFlag:
    """A file-based cross-process event.

    ``multiprocessing.Event`` must be inherited at fork/spawn time; a
    flag file only needs a path, so arbitrary processes (including ones
    started via ``subprocess``) can sequence against each other
    deterministically.  Setting is atomic (``O_CREAT`` of a marker
    file); waiting polls with a small sleep.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def set(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch()

    def is_set(self) -> bool:
        return self.path.exists()

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass

    def wait(self, timeout_s: float = 30.0,
             poll_s: float = 0.005) -> bool:
        """Block until set (True) or until ``timeout_s`` elapses (False)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.is_set():
                return True
            time.sleep(poll_s)
        return self.is_set()


class WindowFaultStore(FaultHookStore):
    """An :class:`ArtifactStore` that stops inside the object→manifest
    window of its next ``put_*``.

    The store's crash-consistency window — object file on disk, manifest
    entry not yet recorded — is normally microseconds wide.  This store
    holds it open on cue so a test can script a concurrent maintenance
    pass into the exact interleaving that loses work on an unprotected
    store:

    * ``window_flag`` is set the moment the window opens (object
      written, manifest pending);
    * with a ``proceed_flag``, the write then *blocks* until the flag is
      set — the test runs ``gc``/``fsck`` meanwhile, then releases the
      writer, which must still complete into a verified hit;
    * with ``kill_in_window=True``, the process instead dies on the spot
      with ``os._exit`` — a ``kill -9`` mid-``put``, leaving the orphan
      object for the next ``fsck --repair`` or ``gc``.

    Only one window fires: the first write after ``skip_writes`` earlier
    writes have completed normally (so a multi-cell campaign can target
    one specific write mid-run).
    """

    def __init__(self, root, *, window_flag: Union[str, Path],
                 proceed_flag: Optional[Union[str, Path]] = None,
                 kill_in_window: bool = False,
                 skip_writes: int = 0,
                 exit_code: int = 175,
                 wait_timeout_s: float = 30.0,
                 **store_kwargs):
        super().__init__(root, **store_kwargs)
        self.window_flag = SyncFlag(window_flag)
        self.proceed_flag = (SyncFlag(proceed_flag)
                             if proceed_flag is not None else None)
        self.kill_in_window = kill_in_window
        self.exit_code = exit_code
        self.wait_timeout_s = wait_timeout_s
        self._trigger = OneShotTrigger(skip=skip_writes)

    def _pre_record_hook(self, key: str) -> None:
        # By the time this hook runs the object file exists and the
        # manifest entry does not: the window is open.
        if not self._trigger.should_fire():
            return
        self.window_flag.set()
        if self.kill_in_window:
            # Skips atexit/finally, exactly like SIGKILL: the kernel
            # drops the locks and the orphan object stays behind.
            os._exit(self.exit_code)
        if self.proceed_flag is not None:
            if not self.proceed_flag.wait(self.wait_timeout_s):
                raise TimeoutError(
                    f"window proceed flag {self.proceed_flag.path} was "
                    f"never set within {self.wait_timeout_s} s")


class TransientFaultStore(ArtifactStore):
    """An :class:`ArtifactStore` whose file operations hit scripted
    ``EAGAIN`` blips.

    ``faults`` maps a file-operation name (``"read_bytes"`` for a
    manifest read, ``"_open_hashed"`` for an object read,
    ``"_atomic_write_bytes"`` for an object or manifest write,
    ``"_list_dir"``, ...) to a period ``n``:
    attempts 1, 1 + n, 1 + 2n, ... of that operation raise
    ``OSError(EAGAIN)`` before touching the disk.  ``n = 1`` makes every
    attempt fail; ``n = 2`` fails each operation's first try and lets
    its retry through.  ``calls`` counts every attempt per name and
    ``faulted`` the ones that raised, so a test can check that the
    faults really fired.  The store's own :class:`RetryPolicy` decides
    whether an operation recovers; pass ``retry`` to replace it.
    """

    def __init__(self, root, faults: Optional[Mapping[str, int]] = None,
                 *, retry: Optional[RetryPolicy] = None, **store_kwargs):
        super().__init__(root, **store_kwargs)
        if retry is not None:
            self.retry = retry
        self.faults = dict(faults or {})
        self.calls: Dict[str, int] = {}
        self.faulted: Dict[str, int] = {}

    def _call(self, operation: Callable[..., Any], *args: Any) -> Any:
        name = getattr(operation, "__name__", repr(operation))

        def attempt(*call_args: Any) -> Any:
            ordinal = self.calls.get(name, 0)
            self.calls[name] = ordinal + 1
            period = self.faults.get(name)
            if period is not None and ordinal % period == 0:
                self.faulted[name] = self.faulted.get(name, 0) + 1
                raise OSError(errno.EAGAIN,
                              f"injected transient fault in {name}")
            return operation(*call_args)

        return super()._call(attempt, *args)
