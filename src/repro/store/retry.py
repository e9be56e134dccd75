"""Bounded retries with deterministic jitter for transient-IO blips.

One backoff formula serves the whole repository: attempt ``n`` waits
``base_s * 2**(n-1) * (0.5 + jitter)`` where ``jitter`` is drawn from a
:class:`random.Random` seeded with a caller-chosen token plus the
attempt number.  Equal tokens therefore always produce equal delays —
the campaign supervisor's retry schedule is reproducible run-to-run —
while distinct tokens (different cells, different processes) spread
their retries apart instead of thundering in lockstep.

:class:`RetryPolicy` wraps the formula into a small "call with
retries" helper the store uses around lock acquisition and every
file operation, so an ``EAGAIN``-class operating-system blip
costs a few milliseconds of backoff instead of a failed campaign cell.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Errno values that indicate a transient operating-system condition —
#: worth a bounded retry, unlike a real miss (ENOENT) or a permission
#: problem.
TRANSIENT_ERRNOS = frozenset({
    errno.EAGAIN,
    errno.EWOULDBLOCK,
    errno.EINTR,
    errno.EBUSY,
    errno.ETXTBSY,
})


def is_transient_os_error(error: BaseException) -> bool:
    """True for ``EAGAIN``-class OS errors a bounded retry may clear."""
    return (isinstance(error, OSError)
            and error.errno in TRANSIENT_ERRNOS)


def backoff_delay_s(base_s: float, attempt: int, token: str,
                    cap_s: Optional[float] = None) -> float:
    """Deterministic jittered exponential backoff after ``attempt``.

    This is the one backoff formula of the repository — the campaign
    supervisor's retry schedule and the store's transient-IO retries
    both come from here.  ``token`` seeds the jitter: equal tokens give
    equal delays (determinism), distinct tokens decorrelate concurrent
    retriers.
    """
    if base_s <= 0:
        return 0.0
    jitter = random.Random(f"{token}:{attempt}").random()
    delay = base_s * (2.0 ** (attempt - 1)) * (0.5 + jitter)
    if cap_s is not None:
        delay = min(delay, cap_s)
    return delay


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded transient-failure retries with deterministic jitter.

    ``attempts`` counts total tries (so ``attempts=1`` disables
    retrying).  The jitter token is the pid of the process that retries,
    taken when the retry runs: concurrent processes, forks of one holder
    included, interleave their backoff schedules instead of colliding.
    """

    attempts: int = 4
    base_s: float = 0.005
    cap_s: float = 0.25

    def delay_s(self, attempt: int) -> float:
        """The wait after failed attempt ``attempt`` (1-based)."""
        return backoff_delay_s(self.base_s, attempt, f"pid:{os.getpid()}",
                               cap_s=self.cap_s)

    def call(self, operation: Callable[[], Any]) -> Any:
        """Run ``operation``, retrying transient failures with backoff.

        Only :func:`is_transient_os_error` failures are retried; every
        other exception (a miss, corruption, ``ENOENT``, a permission
        error) propagates at once, and the final attempt's failure
        propagates whatever it was.
        """
        for attempt in range(1, self.attempts + 1):
            try:
                return operation()
            except BaseException as error:
                if (attempt >= self.attempts
                        or not is_transient_os_error(error)):
                    raise
                delay = self.delay_s(attempt)
                if delay > 0:
                    time.sleep(delay)
