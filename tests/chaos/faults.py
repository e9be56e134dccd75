"""Deterministic fault-schedule primitives.

The shared vocabulary of the kit's fault injectors: the stores of
:mod:`chaos.stores` and :class:`chaos.transport.FlakyTransport` decide
*when* a scripted fault fires through the same two pieces —

* :class:`OneShotTrigger` — "fire exactly once, after N earlier
  operations completed normally" (the window/kill stores);
* :class:`FaultSchedule` + :class:`FaultClock` — a frozen, picklable
  script mapping operation ordinals to fault kinds, with explicit
  coordinates, half-open windows (a partition is a window of connection
  errors) and seeded per-operation probabilities.  Equal schedules
  replay equal fault sequences: determinism comes from hashing the seed
  and the ordinal, never from wall-clock time or shared RNG state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple


class OneShotTrigger:
    """Fires exactly once, after ``skip`` earlier :meth:`should_fire` calls.

    The counting/armed/fired bookkeeping that
    :class:`~chaos.stores.WindowFaultStore` (and historically its
    siblings) each reimplemented, in one place.
    """

    def __init__(self, skip: int = 0):
        self._remaining = int(skip)
        self._fired = False

    @property
    def fired(self) -> bool:
        return self._fired

    def should_fire(self) -> bool:
        """Advance the operation counter; True exactly once."""
        if self._fired:
            return False
        if self._remaining > 0:
            self._remaining -= 1
            return False
        self._fired = True
        return True


@dataclass(frozen=True)
class FaultWindow:
    """Every operation with ordinal in ``[start, stop)`` faults ``kind``.

    ``op`` (when given) restricts the window to one operation name —
    e.g. a window of ``"connect"`` faults over only ``put`` operations
    models an asymmetric partition where downloads still work.
    """

    start: int
    stop: int
    kind: str
    op: Optional[str] = None

    def covers(self, ordinal: int, op: Optional[str]) -> bool:
        if not self.start <= ordinal < self.stop:
            return False
        return self.op is None or self.op == op


@dataclass(frozen=True)
class FaultSchedule:
    """A frozen, picklable script of faults over an operation stream.

    Resolution order per operation: explicit ``at`` coordinate first,
    then the first covering window, then the seeded per-kind rates.
    ``fault_at`` is a pure function of (schedule, ordinal, op) — the
    mutable cursor lives in :class:`FaultClock` — so one schedule value
    can travel to worker processes and every holder replays the same
    faults.
    """

    #: Explicit (ordinal, kind) coordinates.
    at: Tuple[Tuple[int, str], ...] = ()
    #: Half-open fault windows (partitions, brown-outs).
    windows: Tuple[FaultWindow, ...] = ()
    #: Seeded random (kind, probability-per-operation) pairs.
    rates: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", tuple(
            (int(ordinal), str(kind)) for ordinal, kind in self.at))
        object.__setattr__(self, "windows", tuple(self.windows))
        object.__setattr__(self, "rates", tuple(
            (str(kind), float(rate)) for kind, rate in self.rates))

    def fault_at(self, ordinal: int,
                 op: Optional[str] = None) -> Optional[str]:
        """The scripted fault kind at one operation ordinal, if any."""
        for at_ordinal, kind in self.at:
            if at_ordinal == ordinal:
                return kind
        for window in self.windows:
            if window.covers(ordinal, op):
                return window.kind
        for kind, rate in self.rates:
            if rate <= 0.0:
                continue
            # One independent, reproducible draw per (seed, kind,
            # ordinal): no shared RNG state, so schedules replay
            # identically regardless of which operations ran before.
            draw = random.Random(f"{self.seed}:{kind}:{ordinal}").random()
            if draw < rate:
                return kind
        return None

    def horizon(self) -> int:
        """The ordinal after which only ``rates`` faults can still fire."""
        edges = [ordinal + 1 for ordinal, _ in self.at]
        edges += [window.stop for window in self.windows]
        return max(edges, default=0)


class FaultClock:
    """Mutable cursor pairing a :class:`FaultSchedule` with an op counter."""

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.ordinal = 0

    def next_fault(self, op: Optional[str] = None) -> Optional[str]:
        """The fault for the current operation; advances the counter."""
        fault = self.schedule.fault_at(self.ordinal, op)
        self.ordinal += 1
        return fault
