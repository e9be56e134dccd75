"""Deterministic fault-injection kit for the repository's own infrastructure.

The paper injects faults into hardware to characterise trojans; this
kit injects faults into the *campaign runner* and the *artifact store*
to characterise their fault tolerance — same methodology, pointed
inward.  It is test tooling (``from chaos import ...``), not part of
the shipped package: ``src/`` offers one seam, the supervisor's
``before_attempt`` hook and its ``clock``; the fault-injecting stores
subclass :class:`~repro.store.ArtifactStore`.
"""

from .faults import OneShotTrigger, lose_object
from .plan import FaultInjection, FaultKind, FaultPlan, HangClock, supervise
from .stores import (
    ChaosStore,
    FaultHookStore,
    SyncFlag,
    TransientFaultStore,
    WindowFaultStore,
)

__all__ = [
    "ChaosStore",
    "FaultHookStore",
    "FaultInjection",
    "FaultKind",
    "FaultPlan",
    "HangClock",
    "OneShotTrigger",
    "SyncFlag",
    "TransientFaultStore",
    "WindowFaultStore",
    "lose_object",
    "supervise",
]
