"""Writer leases: who is allowed to have in-flight store writes.

A store write has a deliberate crash-consistency window: the object
file exists before its manifest entry does, so a concurrent maintenance
process scanning for "orphan objects" would see exactly what a live
writer looks like mid-``put``.  Leases close that hole without locks on
the read hit path: every writing process registers a small heartbeated
lease file (pid, host, expiry) under ``leases/`` before its first
write, and maintenance (``gc`` / ``sweep_tmp`` / ``fsck --repair``)
treats orphan objects and temp files as **off-limits while any foreign
live lease exists** — replacing the old "older than 3600 s" mtime
guess with an explicit liveness protocol.

A lease is *stale* — and is broken (deleted) and reported by the next
maintenance pass — when its holder pid is dead on this host **or** its
heartbeat expired.  Breaking is safe: a dead pid has no in-flight
write, and a live-but-expired holder has, by the heartbeat contract
(every ``put_*`` refreshes the lease before touching the store), no
write in flight either.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from .locks import _pid_alive
from .transport import _atomic_write_bytes

PathLike = Union[str, Path]

#: Heartbeat validity window.  Writers refresh their lease whenever a
#: quarter of this has elapsed, so a live writer's lease is always far
#: from expiry while it is actually writing.
DEFAULT_LEASE_TTL_S = 60.0

_LEASE_SEQUENCE = itertools.count(1)


@dataclass(frozen=True)
class LeaseInfo:
    """One parsed lease file."""

    path: Path
    pid: int
    host: str
    owner: str
    expires_at: float

    @property
    def expired(self) -> bool:
        return time.time() >= self.expires_at

    def is_live(self) -> bool:
        """Live = unexpired heartbeat AND (same-host) holder pid alive.

        Off-host leases (different hostname) cannot be pid-checked, so
        the heartbeat expiry alone decides for them.
        """
        if self.expired:
            return False
        if self.host == socket.gethostname():
            return _pid_alive(self.pid)
        return True  # pragma: no cover - cross-host lease

    def describe(self) -> str:
        remaining = self.expires_at - time.time()
        state = ("live" if self.is_live()
                 else ("expired" if self.expired else "dead pid"))
        return (f"{self.path.name}: pid {self.pid} on {self.host} "
                f"({self.owner or 'unnamed'}), {state}, "
                f"expires in {remaining:.0f} s")


class WriterLease:
    """One process's heartbeated claim on a store directory.

    Created by :meth:`ArtifactStore.acquire_lease` (or implicitly by the
    first ``put_*``); refreshed by :meth:`heartbeat`; removed by
    :meth:`release`.  The lease file is written atomically so a reader
    never sees a torn lease.
    """

    def __init__(self, leases_dir: PathLike, owner: str = "",
                 ttl_s: float = DEFAULT_LEASE_TTL_S):
        self.leases_dir = Path(leases_dir)
        self.owner = owner
        self.ttl_s = float(ttl_s)
        self.pid = os.getpid()
        self.host = socket.gethostname()
        sequence = next(_LEASE_SEQUENCE)
        self.path = self.leases_dir / f"{self.host}-{self.pid}-{sequence}.json"
        self._last_beat = 0.0
        self._released = True

    # -- lifecycle ----------------------------------------------------------------

    def _write(self) -> None:
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "pid": self.pid,
            "host": self.host,
            "owner": self.owner,
            "expires_at": time.time() + self.ttl_s,
        }
        _atomic_write_bytes(self.path,
                            json.dumps(payload, sort_keys=True).encode())
        self._last_beat = time.time()
        self._released = False

    def acquire(self) -> "WriterLease":
        self._write()
        return self

    def heartbeat(self, force: bool = False) -> None:
        """Refresh the expiry.

        Cheap by design: the lease file is only rewritten once a
        quarter of the TTL has elapsed (or when ``force``), so calling
        this on every ``put_*`` costs a clock read, not an fsync.  The
        rewrite also resurrects a lease a maintenance pass broke while
        this process sat idle past its TTL.
        """
        if force or time.time() - self._last_beat >= self.ttl_s / 4.0:
            self._write()

    def release(self) -> None:
        if self._released:
            return
        try:
            self.path.unlink()
        except OSError:
            pass
        self._released = True

    def __enter__(self) -> "WriterLease":
        return self.acquire()

    def __exit__(self, *_exc) -> None:
        self.release()


def read_lease(path: PathLike) -> Optional[LeaseInfo]:
    """Parse one lease file; ``None`` when unreadable (torn/foreign)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        return LeaseInfo(
            path=path,
            pid=int(payload["pid"]),
            host=str(payload["host"]),
            owner=str(payload.get("owner", "")),
            expires_at=float(payload["expires_at"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def list_leases(leases_dir: PathLike) -> List[LeaseInfo]:
    """Every parseable lease under ``leases_dir``, sorted by filename."""
    leases_dir = Path(leases_dir)
    if not leases_dir.exists():
        return []
    leases = []
    for path in sorted(leases_dir.glob("*.json")):
        info = read_lease(path)
        if info is not None:
            leases.append(info)
    return leases


def live_foreign_leases(leases_dir: PathLike,
                        ignore_pid: Optional[int] = None) -> List[LeaseInfo]:
    """The live leases held by *other* processes.

    ``ignore_pid`` (default: this process) excludes the caller's own
    leases — a process running maintenance cannot be racing its own
    in-flight write, single-threaded as the campaign runners are.
    """
    own_pid = os.getpid() if ignore_pid is None else ignore_pid
    host = socket.gethostname()
    return [lease for lease in list_leases(leases_dir)
            if lease.is_live()
            and not (lease.pid == own_pid and lease.host == host)]


def break_stale_leases(leases_dir: PathLike) -> List[LeaseInfo]:
    """Delete (and return) every stale lease: dead pid or expired.

    Unreadable lease files (torn writes) are deleted too — a writer
    whose lease write tore will re-write it on its next heartbeat.
    """
    leases_dir = Path(leases_dir)
    if not leases_dir.exists():
        return []
    broken: List[LeaseInfo] = []
    for path in sorted(leases_dir.glob("*.json")):
        info = read_lease(path)
        if info is not None and info.is_live():
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - lost a delete race
            continue
        if info is not None:
            broken.append(info)
    return broken
