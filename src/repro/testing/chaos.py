"""Deterministic chaos harness for campaign fault-tolerance tests.

A :class:`FaultPlan` scripts infrastructure faults at exact
``(cell_index, attempt)`` coordinates of a supervised campaign run
(:class:`~repro.campaigns.supervisor.CampaignSupervisor`):

* ``crash``     — the worker process dies with ``os._exit`` right before
  executing the cell, exactly like an OOM kill or a segfaulting native
  extension;
* ``hang``      — the worker sleeps past any sane cell timeout, standing
  in for a deadlocked kernel call;
* ``truncate``  — the worker completes the cell, writes its completion
  record, *tears the object file in half after the manifest entry is
  recorded* (the worst torn-write ordering: the store claims a hit whose
  payload is garbage), then dies — exercising the store's read-time
  digest verification and quarantine path;
* ``interrupt`` — the *supervisor* initiates its SIGINT drain the moment
  the coordinate starts executing, standing in for an operator ^C, so
  interrupt/resume behaviour is testable without real signals.

Coordinates are attempt-aware: attempt numbers start at 1, so a plan
injecting ``(cell 3, attempt 1)`` makes the first try fail and lets the
retry succeed.  The plan is a frozen, picklable value object — it
travels to worker processes with the engine payload, every run of the
same plan injects the same faults, and a chaos run's final merged rows
are required (by the acceptance tests) to be bit-identical to a clean
serial run of the same spec.

**Multi-process fault plans** extend the vocabulary to races *between*
processes sharing one store directory:

* :class:`SyncFlag` — a file-based event for deterministic cross-process
  sequencing (no inherited ``multiprocessing`` primitives needed, so it
  works between arbitrary spawned/forked/exec'd processes);
* :class:`WindowFaultStore` — an :class:`ArtifactStore` that *stops
  inside the object→manifest window* of a ``put_*``: it raises a
  :class:`SyncFlag` the moment the object file exists without its
  manifest entry, then either waits for a proceed flag (letting the test
  script a concurrent ``gc``/``fsck --repair`` into the exact window) or
  dies with ``os._exit`` (a ``kill -9`` mid-``put``, leaving the orphan
  object plus a lease whose pid is dead).

These are the building blocks of the multi-process stress suite
(``tests/test_store_concurrency.py``): two writers racing one key, a
``gc`` scripted into a live writer's window (the leased orphan must
survive), kill -9 mid-``put`` (lease goes stale, ``fsck --repair``
recovers, a resumed run computes only the missing cells), and the
N-shard-processes-vs-maintenance-loop acceptance test.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple, Union

from ..store.artifact_store import ArtifactStore, ManifestEntry
from .faults import OneShotTrigger


class FaultKind:
    """The fault vocabulary of a :class:`FaultPlan` (string constants)."""

    CRASH = "crash"
    HANG = "hang"
    TRUNCATE = "truncate"
    INTERRUPT = "interrupt"

    ALL = (CRASH, HANG, TRUNCATE, INTERRUPT)


@dataclass(frozen=True)
class FaultInjection:
    """One scripted fault: what happens at one (cell, attempt) coordinate."""

    cell_index: int
    attempt: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: "
                + ", ".join(FaultKind.ALL)
            )
        if self.attempt < 1:
            raise ValueError("attempt numbers start at 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of infrastructure faults for one run."""

    injections: Tuple[FaultInjection, ...] = ()
    #: How long a ``hang`` fault sleeps — far past any test timeout by
    #: default, so a hang is only ever resolved by the supervisor's
    #: cell timeout, never by the sleep finishing first.
    hang_seconds: float = 3600.0
    #: Exit code of ``crash`` faults (distinctive, so test assertions
    #: can tell a scripted crash from an accidental one).
    crash_exit_code: int = 173
    #: Exit code of the post-truncation kill.
    truncate_exit_code: int = 174

    def __post_init__(self) -> None:
        object.__setattr__(self, "injections", tuple(self.injections))
        coordinates = [(i.cell_index, i.attempt) for i in self.injections]
        if len(set(coordinates)) != len(coordinates):
            raise ValueError("one fault per (cell_index, attempt) coordinate")

    def lookup(self, cell_index: int, attempt: int) -> Optional[FaultInjection]:
        """The scripted fault at a coordinate, if any."""
        for injection in self.injections:
            if (injection.cell_index, injection.attempt) == (cell_index,
                                                             attempt):
                return injection
        return None

    def worker_fault(self, cell_index: int,
                     attempt: int) -> Optional[FaultInjection]:
        """The worker-side fault at a coordinate (interrupts are
        supervisor-side and excluded)."""
        injection = self.lookup(cell_index, attempt)
        if injection is not None and injection.kind != FaultKind.INTERRUPT:
            return injection
        return None

    def interrupts_at(self, cell_index: int, attempt: int) -> bool:
        """True when the supervisor should start its drain at this
        coordinate (an ``interrupt`` fault)."""
        injection = self.lookup(cell_index, attempt)
        return injection is not None and injection.kind == FaultKind.INTERRUPT

    def execute_worker_fault(self, injection: FaultInjection) -> None:
        """Carry out a pre-execution worker fault (crash or hang).

        Truncation is a *post*-write fault and is carried out by
        :class:`ChaosStore` instead.
        """
        if injection.kind == FaultKind.CRASH:
            # os._exit skips every atexit/finally handler — the closest
            # a test can get to a SIGKILL'd or OOM-killed worker.
            os._exit(self.crash_exit_code)
        elif injection.kind == FaultKind.HANG:
            time.sleep(self.hang_seconds)


class FaultHookStore(ArtifactStore):
    """The shared hook dispatch of every fault-injecting store.

    ``ChaosStore`` and ``WindowFaultStore`` used to each re-override the
    write path with their own plumbing; this base funnels both seams
    through one dispatcher so subclasses only state *what* their fault
    does, not where to splice it in:

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

    def __init__(self, root, plan: FaultPlan):
        super().__init__(root)
        self.plan = plan
        self._armed: Optional[FaultInjection] = None

    def arm(self, cell_index: int, attempt: int) -> None:
        """Point the store at the coordinate about to execute."""
        injection = self.plan.lookup(cell_index, attempt)
        if injection is not None and injection.kind == FaultKind.TRUNCATE:
            self._armed = injection
        else:
            self._armed = None

    def _post_put_hook(self, entry: ManifestEntry) -> None:
        if self._armed is None:
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
      object and a lease whose pid is dead for the stale-lease path.

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
            # Skips atexit/finally — the lease file stays behind
            # with a dead pid, exactly like SIGKILL.
            os._exit(self.exit_code)
        if self.proceed_flag is not None:
            if not self.proceed_flag.wait(self.wait_timeout_s):
                raise TimeoutError(
                    f"window proceed flag {self.proceed_flag.path} was "
                    f"never set within {self.wait_timeout_s} s")
