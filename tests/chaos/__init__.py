"""Deterministic fault-injection kit for the repository's own infrastructure.

The paper injects faults into hardware to characterise trojans; this
kit injects faults into the *campaign runner* and the *artifact store*
to characterise their fault tolerance — same methodology, pointed
inward.  It is test tooling (``from chaos import ...``), not part of
the shipped package: ``src/`` offers one seam, the supervisor's
``before_attempt`` hook and its ``clock``, and the store's
:class:`~repro.store.transport.Transport` interface.
"""

from .faults import FaultClock, FaultSchedule, FaultWindow, OneShotTrigger
from .plan import FaultInjection, FaultKind, FaultPlan, HangClock, supervise
from .stores import ChaosStore, FaultHookStore, SyncFlag, WindowFaultStore
from .transport import (
    FlakyTransport,
    TransportConnectionError,
    TransportFaultKind,
    TransportTimeout,
)

__all__ = [
    "ChaosStore",
    "FaultClock",
    "FaultHookStore",
    "FaultInjection",
    "FaultKind",
    "FaultPlan",
    "FaultSchedule",
    "FaultWindow",
    "FlakyTransport",
    "HangClock",
    "OneShotTrigger",
    "SyncFlag",
    "TransportConnectionError",
    "TransportFaultKind",
    "TransportTimeout",
    "WindowFaultStore",
    "supervise",
]
