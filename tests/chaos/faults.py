"""Deterministic fault-schedule primitive and a lost-object fault.

:class:`OneShotTrigger` decides *when* a scripted store fault fires:
exactly once, after N earlier operations completed normally
(:class:`~chaos.stores.WindowFaultStore`).  It counts operations,
never wall-clock time.  :func:`lose_object` deletes one stored key's
files, the loss an interrupted run or an operator leaves behind.
"""

from __future__ import annotations


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


def lose_object(store, key: str) -> bool:
    """Delete ``key``'s manifest entry and object file from ``store``;
    True if anything was removed."""
    removed = False
    for path in (store.manifest_dir / f"{key}.json",
                 store.objects_dir / f"{key}.json",
                 store.objects_dir / f"{key}.npz"):
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        removed = True
    return removed
