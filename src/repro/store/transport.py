"""The blob transport every artifact store does its IO through.

A :class:`Transport` moves opaque byte payloads under string keys —
``get``/``put``/``list``/``delete`` plus an atomic ``commit`` (rename).
:class:`~repro.store.artifact_store.ArtifactStore` is written against
this seam and nothing else: the content-addressed protocol above it
(encode, SHA-256, object-then-manifest put, verified read, quarantine)
is one implementation whatever the backend.  Keys are slash-separated
paths (``objects/<sha>.json``); payloads are bytes; misses raise
:class:`KeyError`; ``delete`` is idempotent and reports whether the key
existed.

Two implementations ship here:

* :class:`LoopbackTransport` — a directory on the local filesystem.  It
  is the backend of every local :class:`ArtifactStore` and, behind a
  :class:`~repro.store.remote.RemoteStore`, a remote (a shared NFS/SMB
  mount works as a real deployment target out of the box), so the
  whole remote stack is testable hermetically;
* :class:`FlakyTransport` — a decorator that injects *seeded,
  scripted* faults from a :class:`~repro.testing.faults.FaultSchedule`:
  connection errors, timeouts, latency, truncated payloads and corrupt
  bytes, each at an exact operation ordinal.  Every chaos test in
  ``tests/`` drives the remote store through this decorator; equal
  schedules replay equal fault sequences, so there is no wall-clock or
  RNG nondeterminism anywhere in the failure paths.

Fault kinds (``FaultKind`` constants of this module, distinct from the
campaign-level :class:`repro.testing.chaos.FaultKind` vocabulary):

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
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

if TYPE_CHECKING:
    from ..testing.faults import FaultSchedule


class TransportConnectionError(ConnectionResetError):
    """The backend was unreachable (injected or real)."""


class TransportTimeout(TimeoutError):
    """The operation exceeded its time budget (injected or real)."""


class TransportFaultKind:
    """The fault vocabulary of :class:`FlakyTransport`."""

    CONNECT = "connect"
    TIMEOUT = "timeout"
    LATENCY = "latency"
    TRUNCATE = "truncate"
    CORRUPT = "corrupt"

    ALL = (CONNECT, TIMEOUT, LATENCY, TRUNCATE, CORRUPT)


class Transport:
    """The blob-transport interface.

    Implementations move bytes; everything content-addressed (digests,
    manifests, atomicity protocols) lives a layer up in
    :class:`~repro.store.artifact_store.ArtifactStore`.
    """

    def get(self, key: str) -> bytes:
        """The payload at ``key``; :class:`KeyError` on a miss."""
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` at ``key`` (creating parents as needed)."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[str]:
        """All keys under ``prefix``, sorted."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove ``key``; ``False`` (not an error) when already absent."""
        raise NotImplementedError

    def commit(self, src_key: str, dst_key: str) -> None:
        """Atomically rename ``src_key`` to ``dst_key`` (the second leg
        of an upload-then-commit atomic put); :class:`KeyError` when
        ``src_key`` is missing."""
        raise NotImplementedError

    def spawn_config(self) -> Dict[str, object]:
        """A picklable description a worker process can rebuild from."""
        raise NotImplementedError


def _check_key(key: str) -> str:
    """Reject keys that could escape the transport's namespace."""
    for part in key.split("/"):
        if part in ("", ".", "..") or "\\" in part:
            raise ValueError(f"invalid transport key {key!r}")
    return key


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + replace.

    The temp file is hidden and ends in ``.tmp``, the pattern the local
    store's ``fsck``/``gc`` sweep after an interrupted write.
    """
    handle, temp_name = tempfile.mkstemp(prefix=f".{path.name}.",
                                         suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(handle, "wb") as temp_file:
            temp_file.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class LoopbackTransport(Transport):
    """A directory as a blob backend.

    Puts are atomic at the file level (temp file + ``os.replace``) so
    even the *loopback* never exposes a half-written payload — the
    torn-payload failure mode is injected explicitly by
    :class:`FlakyTransport` instead of happening by accident.
    Directories are created on the first write under them.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root.joinpath(*_check_key(key).split("/"))

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        try:
            _atomic_write_bytes(path, data)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_bytes(path, data)

    def list(self, prefix: str = "") -> List[str]:
        base = self.root.joinpath(*prefix.split("/")) if prefix else self.root
        if not base.is_dir():
            return []
        keys = []
        for path in base.rglob("*"):
            if path.is_file() and not path.name.endswith(".tmp"):
                keys.append(path.relative_to(self.root).as_posix())
        return sorted(keys)

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def commit(self, src_key: str, dst_key: str) -> None:
        src, dst = self._path(src_key), self._path(dst_key)
        dst.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(src, dst)
        except FileNotFoundError:
            raise KeyError(src_key) from None

    def spawn_config(self) -> Dict[str, object]:
        return {"kind": "loopback", "root": str(self.root)}


class FlakyTransport(Transport):
    """Deterministic fault injection around any :class:`Transport`.

    One :class:`~repro.testing.faults.FaultClock` counts *every*
    operation (get/put/list/delete/commit) in call order; the
    schedule's ordinals index that stream.  ``ops`` exposes the cursor
    so tests can assert exactly where faults landed, and
    ``fault_counts`` tallies what fired.
    """

    def __init__(self, inner: Transport, schedule: FaultSchedule, *,
                 latency_s: float = 0.002):
        # Imported here: the local store imports this module, and
        # ``repro.testing`` imports the local store.
        from ..testing.faults import FaultClock

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
        return {
            "kind": "flaky",
            "inner": self.inner.spawn_config(),
            "schedule": {
                "at": list(list(pair) for pair in self.schedule.at),
                "windows": [
                    {"start": w.start, "stop": w.stop,
                     "kind": w.kind, "op": w.op}
                    for w in self.schedule.windows
                ],
                "rates": list(list(pair) for pair in self.schedule.rates),
                "seed": self.schedule.seed,
            },
            "latency_s": self.latency_s,
        }


def build_transport(config: Union[Transport, Dict[str, object], str,
                                  Path]) -> Transport:
    """Rebuild a transport from a :meth:`Transport.spawn_config` dict.

    Strings/paths are shorthand for a loopback directory; transports
    pass through unchanged.
    """
    if isinstance(config, Transport):
        return config
    if isinstance(config, (str, Path)):
        return LoopbackTransport(config)
    kind = config.get("kind")
    if kind == "loopback":
        return LoopbackTransport(str(config["root"]))
    if kind == "flaky":
        from ..testing.faults import FaultSchedule, FaultWindow

        raw = dict(config.get("schedule") or {})
        schedule = FaultSchedule(
            at=tuple((int(o), str(k)) for o, k in raw.get("at", ())),
            windows=tuple(
                FaultWindow(start=int(w["start"]), stop=int(w["stop"]),
                            kind=str(w["kind"]), op=w.get("op"))
                for w in raw.get("windows", ())),
            rates=tuple((str(k), float(r)) for k, r in raw.get("rates", ())),
            seed=int(raw.get("seed", 0)),
        )
        return FlakyTransport(
            build_transport(dict(config["inner"])),  # type: ignore[arg-type]
            schedule,
            latency_s=float(config.get("latency_s", 0.002)),
        )
    raise ValueError(f"unknown transport config {config!r}")
