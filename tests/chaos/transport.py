"""Scripted faults at the store's transport seam.

:class:`FlakyTransport` wraps any :class:`~repro.store.transport.Transport`
and injects *seeded, scripted* faults from a
:class:`~chaos.faults.FaultSchedule` at exact operation ordinals.  Every
remote-store chaos test drives the store through this decorator; equal
schedules replay equal fault sequences, so there is no wall-clock or RNG
nondeterminism anywhere in the failure paths.

Fault kinds (:class:`TransportFaultKind`):

``connect``
    the operation raises :class:`TransportConnectionError`
    (a ``ConnectionResetError``) before touching the backend;
``timeout``
    the operation raises :class:`TransportTimeout` (a
    ``TimeoutError``) before touching the backend;
``latency``
    the operation sleeps a tiny deterministic delay, then succeeds;
``truncate``
    a ``get`` returns the first half of the payload, a ``put`` stores
    only the first half — the digest-verified read path must catch it;
``corrupt``
    one seeded byte of the payload is flipped in flight.

The store retries the first two through its ordinary classification
(:func:`repro.store.retry.is_retryable_error`): they are plain
``ConnectionError``/``TimeoutError`` subclasses.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from repro.store import Transport

from .faults import FaultClock, FaultSchedule


class TransportConnectionError(ConnectionResetError):
    """The backend was unreachable (injected)."""


class TransportTimeout(TimeoutError):
    """The operation exceeded its time budget (injected)."""


class TransportFaultKind:
    """The fault vocabulary of :class:`FlakyTransport`."""

    CONNECT = "connect"
    TIMEOUT = "timeout"
    LATENCY = "latency"
    TRUNCATE = "truncate"
    CORRUPT = "corrupt"

    ALL = (CONNECT, TIMEOUT, LATENCY, TRUNCATE, CORRUPT)


class FlakyTransport(Transport):
    """Deterministic fault injection around any :class:`Transport`.

    One :class:`~chaos.faults.FaultClock` counts *every* operation
    (get/put/list/delete/commit) in call order; the schedule's ordinals
    index that stream.  ``ops`` exposes the cursor so tests can assert
    exactly where faults landed, and ``fault_counts`` tallies what
    fired.  It lives in one process: its ``spawn_config()`` names it
    for display, and :func:`repro.store.build_transport` refuses to
    rebuild it, so a worker never silently runs without the faults.
    """

    def __init__(self, inner: Transport, schedule: FaultSchedule, *,
                 latency_s: float = 0.002):
        self.inner = inner
        self.schedule = schedule
        self.latency_s = latency_s
        self._clock = FaultClock(schedule)
        self.fault_counts: Dict[str, int] = {}

    @property
    def ops(self) -> int:
        """Operations attempted so far (faulted ones included)."""
        return self._clock.ordinal

    def _tick(self, op: str) -> Optional[str]:
        fault = self._clock.next_fault(op)
        if fault is None:
            return None
        self.fault_counts[fault] = self.fault_counts.get(fault, 0) + 1
        if fault == TransportFaultKind.CONNECT:
            raise TransportConnectionError(
                f"injected connection fault at op {self._clock.ordinal - 1} "
                f"({op})")
        if fault == TransportFaultKind.TIMEOUT:
            raise TransportTimeout(
                f"injected timeout at op {self._clock.ordinal - 1} ({op})")
        if fault == TransportFaultKind.LATENCY:
            time.sleep(self.latency_s)
            return None
        if fault in (TransportFaultKind.TRUNCATE, TransportFaultKind.CORRUPT):
            return fault
        raise ValueError(f"unknown transport fault kind {fault!r}")

    @staticmethod
    def _mangle(data: bytes, fault: Optional[str], seed_token: str) -> bytes:
        if fault == TransportFaultKind.TRUNCATE:
            return data[:len(data) // 2]
        if fault == TransportFaultKind.CORRUPT:
            if not data:
                return data
            # Deterministic single-byte flip: position and mask come
            # from the token, not from shared RNG state.
            rng = random.Random(seed_token)
            pos = rng.randrange(len(data))
            mangled = bytearray(data)
            mangled[pos] ^= 1 + rng.randrange(255)
            return bytes(mangled)
        return data

    def get(self, key: str) -> bytes:
        fault = self._tick("get")
        data = self.inner.get(key)
        return self._mangle(data, fault,
                            f"{self.schedule.seed}:get:{key}")

    def put(self, key: str, data: bytes) -> None:
        fault = self._tick("put")
        data = self._mangle(data, fault,
                            f"{self.schedule.seed}:put:{key}")
        self.inner.put(key, data)

    def list(self, prefix: str = "") -> List[str]:
        self._tick("list")
        return self.inner.list(prefix)

    def delete(self, key: str) -> bool:
        self._tick("delete")
        return self.inner.delete(key)

    def commit(self, src_key: str, dst_key: str) -> None:
        self._tick("commit")
        self.inner.commit(src_key, dst_key)

    def spawn_config(self) -> Dict[str, object]:
        return {"kind": "flaky"}
