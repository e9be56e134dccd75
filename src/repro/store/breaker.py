"""A circuit breaker for the remote store's transport calls.

Classic three-state breaker:

* **closed** — operations flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: every operation is refused immediately with
  :class:`CircuitOpenError` (no transport call, no retry burn) until
  ``reset_after`` further operations have been asked for.
* **half-open** — after the cooldown, exactly *one* probe operation is
  let through.  Success closes the breaker; failure re-opens it and
  restarts the cooldown.

The breaker counts its own :meth:`CircuitBreaker.allow` calls — one per
store operation — and measures the cooldown in those calls, not in wall
time, so its transitions are a pure function of the operation sequence
and never depend on scheduling.  :class:`CircuitOpenError` subclasses
``ConnectionError`` on purpose: callers that already degrade gracefully
on connection failures (the tiered store) treat a tripped breaker
exactly like an unreachable remote, which is what it means.
"""

from __future__ import annotations

from typing import List, Tuple


class CircuitOpenError(ConnectionError):
    """Raised instead of calling the transport while the breaker is open."""


class CircuitBreaker:
    """Counts consecutive failures; trips, cools down, probes.

    ``calls`` counts :meth:`allow` calls.  ``transitions`` records every
    state change as ``(calls, from_state, to_state)`` tuples — the
    tests pin this log to prove determinism.  ``failure_threshold`` and
    ``reset_after`` are class attributes; set them on an instance to
    tune one breaker.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    failure_threshold = 3
    reset_after = 8

    def __init__(self):
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.calls = 0
        self.opened_at = 0
        self.transitions: List[Tuple[int, str, str]] = []

    def _move(self, to_state: str) -> None:
        if to_state == self.state:
            return
        self.transitions.append((self.calls, self.state, to_state))
        self.state = to_state

    def allow(self) -> bool:
        """May an operation proceed right now?  Counts one call.

        While open, returns False until ``reset_after`` calls have
        passed since the trip, then moves to half-open and admits the
        single probe.
        """
        self.calls += 1
        if self.state == self.OPEN:
            if self.calls - self.opened_at >= self.reset_after:
                self._move(self.HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            self._move(self.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self.opened_at = self.calls
            self._move(self.OPEN)
        elif (self.state == self.CLOSED
              and self.consecutive_failures >= self.failure_threshold):
            self.opened_at = self.calls
            self._move(self.OPEN)

    def reset(self) -> None:
        """Force-close (used by ``store sync`` before a drain attempt)."""
        self.consecutive_failures = 0
        self._move(self.CLOSED)
