"""Scripted worker faults for supervised campaign runs.

A :class:`FaultPlan` scripts infrastructure faults at exact
``(cell_index, attempt)`` coordinates of a run of
:class:`~repro.campaigns.supervisor.CampaignSupervisor`.  The plan *is*
the supervisor's ``before_attempt`` hook: the worker calls it before
each cell, and at a scripted coordinate it

* ``crash``     — exits with ``os._exit``, exactly like an OOM kill or a
  segfaulting native extension;
* ``hang``      — raises a hang flag, then blocks forever, standing in
  for a deadlocked kernel call: the worker never replies, and only the
  supervisor's timeout SIGKILL ends it;
* ``truncate``  — arms the worker's :class:`~chaos.stores.ChaosStore`
  (swapped in for the plain local store on first use), so the cell's
  completion write is torn after its manifest entry is recorded and
  the worker dies;
* ``interrupt`` — sends SIGINT to the supervisor process before running
  the cell, so the supervisor's real drain handler runs, as it does on
  an operator ^C.

Coordinates are attempt-aware: attempt numbers start at 1, so a plan
injecting ``(cell 3, attempt 1)`` makes the first try fail and lets the
retry succeed.  The plan is a frozen value object; every run of the
same plan injects the same faults.

A hang is expired on a :class:`HangClock`, not on real time: the
supervisor's clock jumps one cell timeout ahead the first time it sees
each hang flag.  The jump is global, so a hang is scripted only on a
one-chunk grid, where the hung attempt is the only one in flight.
:func:`supervise` installs plan and clock on the engine's multi-worker
runs for one test.
"""

from __future__ import annotations

import functools
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Set, Tuple, Union

from repro.campaigns import supervisor
from repro.store import ArtifactStore

from .stores import ChaosStore, SyncFlag


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
    #: Where ``hang`` faults raise their flags (a :class:`HangClock`
    #: watches the same directory).
    flag_dir: Optional[Union[str, Path]] = None
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
        if self.flag_dir is None and any(
                i.kind == FaultKind.HANG for i in self.injections):
            raise ValueError("hang faults need a flag_dir")

    def lookup(self, cell_index: int, attempt: int) -> Optional[FaultInjection]:
        """The scripted fault at a coordinate, if any."""
        for injection in self.injections:
            if (injection.cell_index, injection.attempt) == (cell_index,
                                                             attempt):
                return injection
        return None

    def __call__(self, engine, cell_index: int, attempt: int) -> None:
        """The supervisor's ``before_attempt`` hook (runs in the worker)."""
        if type(engine.store) is ArtifactStore:
            # Torn writes target the plain local store.
            engine.store = ChaosStore(engine.store.root, self)
        if isinstance(engine.store, ChaosStore):
            engine.store.arm(cell_index, attempt)
        injection = self.lookup(cell_index, attempt)
        if injection is None:
            return
        if injection.kind == FaultKind.CRASH:
            # os._exit skips every atexit/finally handler — the closest
            # a test can get to a SIGKILL'd or OOM-killed worker.
            os._exit(self.crash_exit_code)
        elif injection.kind == FaultKind.HANG:
            SyncFlag(Path(self.flag_dir)
                     / f"hang-{cell_index}-{attempt}.flag").set()
            threading.Event().wait()
        elif injection.kind == FaultKind.INTERRUPT:
            os.kill(os.getppid(), signal.SIGINT)


class HangClock:
    """``time.monotonic()`` plus ``step_s`` for every hang flag seen.

    Read by the supervisor for attempt starts, timeout expiry and retry
    due times.  The first read after a worker raises a new hang flag
    lands one cell timeout later than real time, so the hung attempt
    expires at the supervisor's next poll.
    """

    def __init__(self, flag_dir: Union[str, Path], step_s: float):
        self.flag_dir = Path(flag_dir)
        self.step_s = float(step_s)
        self._seen: Set[str] = set()

    def __call__(self) -> float:
        self._seen.update(path.name
                          for path in self.flag_dir.glob("hang-*.flag"))
        return time.monotonic() + len(self._seen) * self.step_s


def supervise(monkeypatch, plan: FaultPlan,
              cell_timeout_s: Optional[float] = None) -> None:
    """Run the engine's supervised runs under ``plan`` for one test.

    ``CampaignEngine.run`` looks the supervisor class up at call time,
    so patching the module attribute reaches every multi-worker run
    (forked workers inherit the hook).  With a ``flag_dir``, the
    supervisor reads a :class:`HangClock` stepping ``cell_timeout_s``.
    """
    clock = (HangClock(plan.flag_dir, cell_timeout_s)
             if plan.flag_dir is not None else time.monotonic)
    monkeypatch.setattr(
        supervisor, "CampaignSupervisor",
        functools.partial(supervisor.CampaignSupervisor, clock=clock,
                          before_attempt=plan))
