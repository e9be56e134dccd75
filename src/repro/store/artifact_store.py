"""The content-addressed artifact store — one implementation, any backend.

Layout of a store (transport keys; one directory per prefix on a
:class:`~repro.store.transport.LoopbackTransport`)::

    objects/     <key>.json | <key>.npz    the payloads
    manifest/    <key>.json                one index entry per key
    quarantine/  <filename>[.n]            corrupt objects, moved aside

:class:`ArtifactStore` does all of its IO through a
:class:`~repro.store.transport.Transport`.  ``ArtifactStore(path)`` is
the local store over ``LoopbackTransport(path)``;
:class:`~repro.store.remote.RemoteStore` is the same class over any
transport, adding only retries-with-breaker and an upload-then-commit
object write; :class:`~repro.store.tiered.TieredStore` is a local store
with a remote behind it.  Local and remote stores therefore write
byte-identical objects and manifest entries under identical keys.

Writes are *atomic*: the object is written first (a temp file plus
:func:`os.replace` on a directory), the manifest entry only after the
object exists.  A key is a *hit* only when both are present, so a crash
mid-write (a stray temp file, or an object without its manifest entry)
can never surface as a corrupt hit — the next producer simply
recomputes and overwrites.

Reads are *verified*: every manifest entry records the SHA-256 digest of
the payload bytes, and :meth:`ArtifactStore.get_json` /
:meth:`ArtifactStore.get_arrays` re-hash the object before parsing it.
A torn or truncated object (digest mismatch, unparseable JSON, a bad
zip) is **never returned**: the object is moved to ``quarantine/``, the
manifest entry is dropped — so the key becomes a clean miss — and the
read raises :class:`StoreIntegrityError` naming the key and the object.
The :meth:`ArtifactStore.load_json` / :meth:`load_arrays` convenience
readers fold both "missing" and "corrupt" into ``None`` for callers
that recompute on a miss.

Because keys are content addresses of the *producing* configuration
(:mod:`repro.store.keys`) and every producer in this repository is
seed-deterministic, concurrent writers of the same key write identical
bytes; the last ``os.replace`` wins and nothing is torn.

**Local-directory capabilities** — a store over a directory it owns
(not a :class:`RemoteStore`) also has:

* a **concurrency protocol** (``locking=True``, the default): any
  number of writer processes and one maintenance process can share a
  store directory.  Writers register a heartbeated :mod:`lease
  <repro.store.leases>` and take the *shared* side of the store lock
  (:mod:`repro.store.locks`, taken through a turnstile so a waiter
  keeps its place) around each file mutation, plus a per-key write
  lock across the object-then-manifest pair; reads stay lock-free
  on the hit path (the digest check guarantees integrity, not a lock);
* an object-presence check in :meth:`ArtifactStore.entry` (a manifest
  entry whose object file is gone is a miss);
* **maintenance**: :meth:`ArtifactStore.fsck` audits the whole store
  (digests, parseability, dangling entries, orphan objects, stray temp
  files) and :meth:`ArtifactStore.gc` sweeps the garbage.  Both take
  the *exclusive* side of the store lock with a bounded wait and run
  one shared sweep: it breaks stale leases (dead pid or expired
  heartbeat), treats orphan objects and temp files as off-limits while
  a live foreign lease exists (a live writer mid-``put`` looks exactly
  like an orphan) unless forced, and re-verifies each candidate against
  the manifest immediately before any destructive action — so
  maintenance is safe to loop against a live campaign fleet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import time
import tokenize
import zipfile
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Mapping, NoReturn,
                    Optional, Protocol, Tuple, Union)

import numpy as np

from .leases import (
    LeaseInfo,
    WriterLease,
    break_stale_leases,
    list_leases,
    live_foreign_leases,
)
from .locks import DEFAULT_LOCK_TIMEOUT_S, FileLock
from .retry import RetryPolicy, is_retryable_error
from .transport import LoopbackTransport, Transport

PathLike = Union[str, Path]

#: On-disk layout version, stored in every manifest entry.  Version 2
#: added the payload ``digest``; version-1 entries (no digest) still
#: load, they just skip digest verification.
STORE_FORMAT_VERSION = 2

_KEY_FORBIDDEN = set("/\\")

#: What a torn JSON or npz payload raises while being parsed (corrupt
#: bytes reach the parser behind digest-less format-version-1 entries).
_DECODE_ERRORS = (ValueError, zipfile.BadZipFile, OSError, EOFError,
                  zlib.error, NotImplementedError, RuntimeError,
                  tokenize.TokenError)


class StoreIntegrityError(RuntimeError):
    """A stored object failed verification (torn, truncated or corrupt).

    Raised by the ``get_*`` readers *after* the corrupt object has been
    quarantined and its manifest entry dropped — the key is a clean miss
    by the time the caller sees this, so retrying the read-through path
    recomputes instead of crashing again.
    """


def _check_key(key: str) -> str:
    if not key or not isinstance(key, str):
        raise ValueError("artifact key must be a non-empty string")
    if set(key) & _KEY_FORBIDDEN or key.startswith("."):
        raise ValueError(f"artifact key {key!r} is not a safe filename")
    return key


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode_json_bytes(payload: Any) -> bytes:
    """The canonical JSON payload encoding of the store.

    Identical payloads produce identical bytes, hence identical digests,
    which is what makes replication and journal drains idempotent.
    """
    from ..io.results import to_jsonable

    return json.dumps(to_jsonable(payload), indent=2,
                      sort_keys=True).encode()


def encode_array_bytes(arrays: Mapping[str, "np.ndarray"]) -> bytes:
    """The canonical npz payload encoding of the store: members are
    stored, not deflated (:func:`decode_array_bytes` reads both)."""
    if not arrays:
        raise ValueError("cannot store an empty array payload")
    buffer = io.BytesIO()
    np.savez(buffer, **{str(name): np.asarray(value)
                        for name, value in arrays.items()})
    return buffer.getvalue()


def decode_json_bytes(data: bytes) -> Any:
    """Parse a JSON object payload (raises ``ValueError`` when torn)."""
    return json.loads(data)


def decode_array_bytes(data: bytes) -> Dict[str, "np.ndarray"]:
    """Parse an npz object payload (raises on a torn/corrupt archive)."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _parses(filename: str, data: bytes) -> bool:
    """True when ``data`` parses as the payload kind ``filename`` names."""
    decode = (decode_json_bytes if filename.endswith(".json")
              else decode_array_bytes)
    try:
        decode(data)
    except _DECODE_ERRORS:
        return False
    return True


def _list_dir(directory: Path) -> List[Path]:
    """Sorted children of ``directory``; empty when the directory is
    missing (a fresh or partially-copied store must audit as empty, not
    crash maintenance)."""
    try:
        return sorted(directory.iterdir())
    except FileNotFoundError:
        return []


def _is_tmp(name: str) -> bool:
    return name.startswith(".") and name.endswith(".tmp")


def _manifest_key(key: str) -> str:
    return f"manifest/{key}.json"


@dataclass(frozen=True)
class ManifestEntry:
    """Index record of one stored artifact."""

    key: str
    kind: str
    filename: str
    meta: Dict[str, Any] = field(default_factory=dict)
    #: SHA-256 of the object payload bytes; ``None`` on legacy
    #: (format-version-1) entries, which skip digest verification.
    digest: Optional[str] = None

    @property
    def object_key(self) -> str:
        """The transport key of the entry's object."""
        return f"objects/{self.filename}"

    def to_dict(self) -> Dict[str, Any]:
        return {"format_version": STORE_FORMAT_VERSION, "key": self.key,
                "kind": self.kind, "filename": self.filename,
                "meta": dict(self.meta), "digest": self.digest}

    def to_bytes(self) -> bytes:
        """The canonical manifest-file encoding of the entry."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True).encode()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ManifestEntry":
        return cls(key=payload["key"], kind=payload["kind"],
                   filename=payload["filename"],
                   meta=dict(payload.get("meta", {})),
                   digest=payload.get("digest"))


class Store(Protocol):
    """The store surface the campaign engine, its workers and the suite
    runner use; :func:`~repro.store.tiered.build_store` builds every
    flavour.  Declared as attributes: :class:`ArtifactStore` holds the
    one implementation of each operation."""

    root: Any
    put_json: Callable[..., ManifestEntry]
    put_arrays: Callable[..., ManifestEntry]
    load_json: Callable[[str], Optional[Any]]
    load_arrays: Callable[[str], Optional[Dict[str, np.ndarray]]]
    get_arrays: Callable[[str], Dict[str, np.ndarray]]
    acquire_lease: Callable[..., Optional[WriterLease]]
    release_lease: Callable[[], None]
    spawn_config: Callable[[], Dict[str, Any]]


@dataclass
class FsckReport:
    """Outcome of one :meth:`ArtifactStore.fsck` audit."""

    ok: List[str] = field(default_factory=list)
    #: Keys whose object failed digest verification or parsing.
    corrupt: List[str] = field(default_factory=list)
    #: Keys whose manifest entry points at a missing object.
    missing_objects: List[str] = field(default_factory=list)
    #: Manifest files that are not parseable manifest entries.
    unreadable_manifests: List[str] = field(default_factory=list)
    #: Keys whose corrupt manifest was rebuilt from the intact object
    #: (``repair=True`` only) — the work was kept, not discarded.
    rebuilt_manifests: List[str] = field(default_factory=list)
    #: Object files no manifest entry references.
    orphan_objects: List[str] = field(default_factory=list)
    #: Orphan objects covered by a live writer lease — a concurrent
    #: ``put`` between its object and manifest writes, left untouched.
    leased_orphans: List[str] = field(default_factory=list)
    #: Leftover ``*.tmp`` files from interrupted writes.
    stray_tmp: List[str] = field(default_factory=list)
    #: Stale writer leases (dead pid / expired heartbeat) broken by a
    #: ``repair=True`` pass.
    broken_leases: List[str] = field(default_factory=list)
    #: True when the audit also repaired what it found.
    repaired: bool = False

    def clean(self) -> bool:
        """True when the audit found nothing wrong.

        Leased orphans do not count: an orphan covered by a live lease
        is a concurrent writer mid-``put``, i.e. normal operation.
        """
        return not (self.corrupt or self.missing_objects
                    or self.unreadable_manifests or self.rebuilt_manifests
                    or self.orphan_objects or self.stray_tmp)

    def summary(self) -> str:
        lines = [f"{len(self.ok)} artifact(s) verified"]
        for label, items in (
                ("corrupt (quarantined)" if self.repaired else "corrupt",
                 self.corrupt),
                ("dangling manifest entries", self.missing_objects),
                ("unreadable manifest files", self.unreadable_manifests),
                ("manifest(s) rebuilt from intact objects",
                 self.rebuilt_manifests),
                ("orphan objects (removed)" if self.repaired
                 else "orphan objects", self.orphan_objects),
                ("orphan(s) covered by a live writer lease (kept)",
                 self.leased_orphans),
                ("stray temp files", self.stray_tmp),
                ("stale lease(s) broken", self.broken_leases)):
            if items:
                shown = ", ".join(items[:5])
                suffix = f" … and {len(items) - 5} more" if len(items) > 5 \
                    else ""
                lines.append(f"{len(items)} {label}: {shown}{suffix}")
        if self.clean():
            lines.append("store is clean")
        return "\n".join(lines)


class ArtifactStore:
    """Content-addressed npz/JSON artifact store with a manifest index.

    ``ArtifactStore(path)`` is the local store over
    ``LoopbackTransport(path)``.  ``locking=False`` restores the
    single-process store (no locks, no leases) — kept for the
    concurrency-overhead benchmark baseline and for callers that own
    the directory exclusively.
    """

    def __init__(self, root: PathLike, *, locking: bool = True):
        self.root = Path(root)
        self.transport: Transport = LoopbackTransport(self.root)
        self.objects_dir = self.root / "objects"
        self.manifest_dir = self.root / "manifest"
        self.quarantine_dir = self.root / "quarantine"
        self.locks_dir = self.root / "locks"
        self.leases_dir = self.root / "leases"
        self.locking = bool(locking)
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self._lease: Optional[WriterLease] = None
        #: Retries transient failures (EAGAIN-class blips, connection
        #: resets) around lock acquisition and every transport call.
        self.retry = RetryPolicy(token=f"store:{os.getpid()}")

    def _call(self, operation: Callable[..., Any], *args: Any) -> Any:
        """One transport call, retried per :func:`is_retryable_error`."""
        return self.retry.call(lambda: operation(*args),
                               retry_on=is_retryable_error)

    # -- locks & leases (local capability) ----------------------------------------

    @contextmanager
    def _store_lock(self, shared: bool, wait_s: Optional[float] = None):
        """The store lock: its shared side around one writer's file
        mutation, its exclusive side (bounded by ``wait_s``) around
        ``gc``/``fsck --repair``.

        Every acquisition waits holding the turnstile
        (``locks/store.turnstile``) and lets it go once the store lock
        is held.  A waiter therefore keeps its place: a process that
        re-takes the store lock in a loop queues at the turnstile
        instead of overtaking the waiter between two of its backoff
        sleeps.
        """
        if not self.locking:
            yield
            return
        lock = FileLock(self.locks_dir / "store.lock")
        turnstile = FileLock(self.locks_dir / "store.turnstile")
        timeout = DEFAULT_LOCK_TIMEOUT_S if wait_s is None else float(wait_s)

        def acquire() -> None:
            deadline = time.monotonic() + timeout
            with turnstile.holding(timeout_s=timeout):
                lock.acquire(shared=shared,
                             timeout_s=deadline - time.monotonic())

        self.retry.call(acquire)
        try:
            yield
        finally:
            lock.release()

    def _write_guard(self, key: str):
        """Per-key writer mutual exclusion (plus lease upkeep)."""
        if not self.locking:
            return nullcontext()
        self._ensure_lease()
        return FileLock(self.locks_dir / f"key.{key}.lock").holding()

    def acquire_lease(self, owner: str = "") -> Optional[WriterLease]:
        """Register (or refresh) this process's writer lease.

        Campaign engines call this at run start so their whole run —
        including the compute time between store writes — counts as
        live to concurrent maintenance.  ``put_*`` calls it implicitly.
        A store without locking (every remote) has no leases.
        """
        if not self.locking:
            return None
        if self._lease is None:
            self._lease = WriterLease(self.leases_dir, owner=owner)
        self._lease.acquire()
        return self._lease

    def _ensure_lease(self) -> None:
        if self._lease is None or self._lease._released:
            self.acquire_lease()
        else:
            self._lease.heartbeat()

    def release_lease(self) -> None:
        """Drop this process's writer lease (idempotent)."""
        if self._lease is not None:
            self._lease.release()

    def leases(self) -> List[LeaseInfo]:
        """Every parseable lease currently registered on this store."""
        return list_leases(self.leases_dir)

    # -- write --------------------------------------------------------------------

    def _write_object(self, entry: ManifestEntry, data: bytes) -> None:
        with self._store_lock(shared=True):
            self._call(self.transport.put, entry.object_key, data)

    def _record(self, entry: ManifestEntry) -> ManifestEntry:
        with self._store_lock(shared=True):
            self._call(self.transport.put, _manifest_key(entry.key),
                       entry.to_bytes())
        return entry

    def put_object(self, entry: ManifestEntry, data: bytes) -> ManifestEntry:
        """Write one artifact: the object, then its manifest entry.

        ``put_json``/``put_arrays`` and every replication (tiered
        write-through and backfill, the journal drain) land here.  The
        payload is checked against ``entry.digest`` before anything is
        written (a digest-less entry gets one), so corrupt bytes can
        never be installed as a hit; equal keys hold equal bytes, so a
        replayed put is idempotent.
        """
        _check_key(entry.key)
        digest = _sha256(data)
        if entry.digest is None:
            entry = dataclasses.replace(entry, digest=digest)
        elif entry.digest != digest:
            raise StoreIntegrityError(
                f"refusing to write artifact {entry.key!r}: payload bytes "
                f"do not match the manifest digest")
        with self._write_guard(entry.key):
            self._write_object(entry, data)
            return self._record(entry)

    def put_json(self, key: str, payload: Any, *, kind: str = "json",
                 meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        """Store a JSON-serialisable payload under ``key``."""
        entry = ManifestEntry(key=_check_key(key), kind=kind,
                              filename=f"{key}.json", meta=dict(meta or {}))
        return self.put_object(entry, encode_json_bytes(payload))

    def put_arrays(self, key: str, arrays: Mapping[str, np.ndarray], *,
                   kind: str = "arrays",
                   meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        """Store a named-array payload under ``key`` as an npz archive."""
        entry = ManifestEntry(key=_check_key(key), kind=kind,
                              filename=f"{key}.npz", meta=dict(meta or {}))
        return self.put_object(entry, encode_array_bytes(arrays))

    def spawn_config(self) -> Dict[str, Any]:
        """A picklable description a worker process can rebuild from."""
        return {"kind": "local", "root": str(self.root),
                "locking": self.locking}

    # -- read ---------------------------------------------------------------------

    def _has_object(self, entry: ManifestEntry) -> bool:
        """Whether the entry's object exists (a stat on the directory)."""
        return (self.objects_dir / entry.filename).exists()

    def entry(self, key: str) -> Optional[ManifestEntry]:
        """The manifest entry of ``key`` — ``None`` unless key is a full hit.

        A missing or unparseable manifest (or a concurrent discard) is a
        miss; connection failures propagate, so "the backend is down"
        never masquerades as "the key is a miss".
        """
        _check_key(key)
        try:
            raw = self._call(self.transport.get, _manifest_key(key))
            entry = ManifestEntry.from_dict(json.loads(raw))
        except (KeyError, ValueError, TypeError):
            return None
        return entry if self._has_object(entry) else None

    def __contains__(self, key: str) -> bool:
        return self.entry(key) is not None

    def _quarantine_object(self, entry: ManifestEntry) -> str:
        """Move a corrupt object aside and drop its manifest entry.

        After this the key is a clean *miss*: the corrupt payload can
        never be returned again and the next producer recomputes.  The
        destination name gets a monotonic suffix when it is already
        taken, so a key corrupted more than once keeps every forensic
        payload instead of silently clobbering the previous one.
        """
        taken = set(self._call(self.transport.list, "quarantine"))
        destination = f"quarantine/{entry.filename}"
        suffix = 0
        while destination in taken:
            suffix += 1
            destination = f"quarantine/{entry.filename}.{suffix}"
        try:
            self._call(self.transport.commit, entry.object_key, destination)
        except KeyError:
            pass
        self._call(self.transport.delete, _manifest_key(entry.key))
        return destination

    def _reject(self, entry: ManifestEntry, problem: str,
                cause: Optional[BaseException] = None) -> NoReturn:
        """Quarantine ``entry``'s object and raise the integrity error."""
        destination = self._quarantine_object(entry)
        raise StoreIntegrityError(
            f"artifact {entry.key!r} object {entry.object_key} in "
            f"{self.root} {problem}; the corrupt object was quarantined to "
            f"{destination} and the key is now a miss"
        ) from cause

    def _verified_bytes(self, key: str) -> Tuple[ManifestEntry, bytes]:
        """The entry and object payload of ``key``, digest-checked.

        Raises ``KeyError`` on a miss and :class:`StoreIntegrityError`
        (after quarantining) when the payload does not match its
        recorded digest.
        """
        entry = self.entry(key)
        if entry is None:
            raise KeyError(f"artifact {key!r} is not in the store")
        try:
            data = self._call(self.transport.get, entry.object_key)
        except KeyError:
            # A concurrent discard/gc between the manifest read and this
            # read: a clean miss, not a raw error escaping the engine.
            raise KeyError(
                f"artifact {key!r} object disappeared between the "
                f"manifest read and the payload read (concurrent "
                f"discard or gc); the key is a miss"
            ) from None
        if entry.digest is not None and _sha256(data) != entry.digest:
            self._reject(entry, "does not match its recorded SHA-256 digest "
                                "(torn or truncated write)")
        return entry, data

    def _read(self, key: str, decode: Callable[[bytes], Any]) -> Any:
        """Fetch, verify and decode one payload; quarantine what fails."""
        entry, data = self._verified_bytes(key)
        try:
            return decode(data)
        except _DECODE_ERRORS as error:
            self._reject(entry, f"holds an unparseable payload ({error})",
                         error)

    def object_bytes(self, key: str) -> bytes:
        """The verified raw payload bytes of ``key`` (for replication)."""
        return self._verified_bytes(key)[1]

    def get_json(self, key: str) -> Any:
        """Load the JSON payload stored under ``key``.

        A corrupt payload is quarantined and raised as
        :class:`StoreIntegrityError` — never returned, never a raw
        ``JSONDecodeError``.
        """
        return self._read(key, decode_json_bytes)

    def get_arrays(self, key: str) -> Dict[str, np.ndarray]:
        """Load the named-array payload stored under ``key``.

        A corrupt payload is quarantined and raised as
        :class:`StoreIntegrityError` — never returned, never a raw
        ``BadZipFile``.
        """
        return self._read(key, decode_array_bytes)

    def load_json(self, key: str) -> Optional[Any]:
        """Read-through helper: the payload, or ``None`` on miss *or*
        corruption (the corrupt object is quarantined either way)."""
        try:
            return self.get_json(key)
        except (KeyError, StoreIntegrityError):
            return None

    def load_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Read-through helper: the arrays, or ``None`` on miss *or*
        corruption (the corrupt object is quarantined either way)."""
        try:
            return self.get_arrays(key)
        except (KeyError, StoreIntegrityError):
            return None

    # -- index --------------------------------------------------------------------

    def index(self) -> Dict[str, ManifestEntry]:
        """The manifest: every complete (entry + object) artifact."""
        entries = {}
        for manifest_key in self._call(self.transport.list, "manifest"):
            name = manifest_key.split("/", 1)[1]
            if not name.endswith(".json"):
                continue
            entry = self.entry(name[:-len(".json")])
            if entry is not None:
                entries[entry.key] = entry
        return entries

    def keys(self) -> Iterator[str]:
        """Iterate over the keys with a valid manifest entry *and* object."""
        return iter(self.index())

    def discard(self, key: str) -> bool:
        """Remove ``key`` (manifest entry first, then the object).

        The object is removed under both candidate names, not only the
        one the manifest entry names: an unreadable entry (e.g. a torn
        manifest write) must not leak the object file forever.
        """
        _check_key(key)
        entry = self.entry(key)
        removed = self._call(self.transport.delete, _manifest_key(key))
        filenames = {f"{key}.json", f"{key}.npz"}
        if entry is not None:
            filenames.add(entry.filename)
        for filename in sorted(filenames):
            if self._call(self.transport.delete, f"objects/{filename}"):
                removed = True
        return removed

    def __len__(self) -> int:
        return len(self.index())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}({str(self.root)!r})"

    # -- integrity (local capability) ---------------------------------------------

    def _verify_entry(self, entry: ManifestEntry) -> bool:
        """True when the entry's payload passes digest + parse checks."""
        try:
            data = (self.objects_dir / entry.filename).read_bytes()
        except OSError:
            return False
        if entry.digest is not None and _sha256(data) != entry.digest:
            return False
        return _parses(entry.filename, data)

    def _rebuild_manifest(self, key: str) -> Optional[ManifestEntry]:
        """Rebuild a corrupt/unreadable manifest from the intact object.

        The payload must parse cleanly; the digest is recomputed from
        the bytes.  The original ``kind``/``meta`` are lost, so the
        rebuilt entry carries a generic kind plus a ``rebuilt`` marker.
        Returns ``None`` when no parseable object exists for the key.
        """
        for suffix, kind in ((".json", "json"), (".npz", "arrays")):
            object_path = self.objects_dir / f"{key}{suffix}"
            try:
                data = object_path.read_bytes()
            except OSError:
                continue
            if not _parses(object_path.name, data):
                continue
            # Written directly, NOT via _record: the caller (fsck
            # --repair) already holds the exclusive store lock, and a
            # same-process shared acquisition on a second fd would
            # self-conflict under flock semantics.
            entry = ManifestEntry(key=key, kind=kind,
                                  filename=object_path.name,
                                  meta={"rebuilt": True},
                                  digest=_sha256(data))
            self.transport.put(_manifest_key(key), entry.to_bytes())
            return entry
        return None

    def _check_manifests(self, report: FsckReport) -> set:
        """Audit every manifest entry into ``report`` (repairing when
        ``report.repaired``); returns the object filenames they claim."""
        repair = report.repaired
        referenced: set = set()
        for manifest_path in sorted(self.manifest_dir.glob("*.json")):
            key = manifest_path.stem
            try:
                entry = ManifestEntry.from_dict(
                    json.loads(manifest_path.read_text()))
            except (ValueError, KeyError):
                # The entry's objects are claimed by this (broken) key,
                # not orphans — rebuilt or removed with it on repair.
                referenced.update({f"{key}.json", f"{key}.npz"})
                if not repair:
                    report.unreadable_manifests.append(key)
                    continue
                rebuilt = self._rebuild_manifest(key)
                if rebuilt is not None:
                    report.rebuilt_manifests.append(key)
                else:
                    report.unreadable_manifests.append(key)
                    manifest_path.unlink(missing_ok=True)
                    for suffix in (".json", ".npz"):
                        (self.objects_dir / f"{key}{suffix}").unlink(
                            missing_ok=True)
                continue
            referenced.add(entry.filename)
            if not self._has_object(entry):
                report.missing_objects.append(key)
                if repair:
                    manifest_path.unlink(missing_ok=True)
                continue
            if self._verify_entry(entry):
                report.ok.append(key)
            else:
                report.corrupt.append(key)
                if repair:
                    self._quarantine_object(entry)
        return referenced

    def _sweep(self, report: FsckReport, referenced: set, *, force: bool,
               tmp_older_than_s: float = 0.0) -> List[LeaseInfo]:
        """The one lease/orphan/temp-file pass of ``fsck`` and ``gc``.

        Fills ``report``'s lease, orphan and temp-file fields and
        returns the live foreign leases it honoured.  A repairing pass
        (``report.repaired``) first breaks stale leases.  While a live
        foreign lease exists, orphan objects (listed as leased) and
        temp files are off-limits — a live writer mid-``put`` looks
        exactly like them — unless ``force``.  Otherwise a repair
        removes every object file ``referenced`` does not name, each
        re-verified against the manifest just before (with ``force`` a
        writer may have recorded it since the scan), and every temp
        file at least ``tmp_older_than_s`` old; an audit lists them.
        """
        repair = report.repaired
        if repair and self.locking:
            report.broken_leases = [
                lease.path.name
                for lease in break_stale_leases(self.leases_dir)]
        live = (live_foreign_leases(self.leases_dir)
                if self.locking and not force else [])
        orphans = [path for path in _list_dir(self.objects_dir)
                   if not _is_tmp(path.name) and path.name not in referenced]
        if live:
            report.leased_orphans = [path.name for path in orphans]
            return live
        for path in orphans:
            if repair:
                if (self.manifest_dir / f"{path.stem}.json").exists():
                    continue
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - lost a delete race
                    pass
            report.orphan_objects.append(path.name)
        now = time.time()
        for directory in (self.objects_dir, self.manifest_dir):
            for path in _list_dir(directory):
                if not _is_tmp(path.name):
                    continue
                try:
                    if now - path.stat().st_mtime < tmp_older_than_s:
                        continue
                    if repair:
                        path.unlink()
                except OSError:
                    continue
                report.stray_tmp.append(str(path.relative_to(self.root)))
        return live

    def fsck(self, repair: bool = False,
             wait_s: Optional[float] = None,
             force: bool = False) -> FsckReport:
        """Audit every artifact: digests, parseability, dangling state.

        ``repair=False`` is a lock-free read-only audit.  With
        ``repair=True`` the audit runs under the **exclusive** store
        lock (bounded ``wait_s``; raises :class:`LockTimeout` when
        writers keep it busy) and quarantines corrupt objects, drops
        dangling manifest entries and **rebuilds** a corrupt manifest
        from its intact object (digest recomputed) instead of
        discarding the work; then the maintenance sweep shared with
        :meth:`gc` breaks stale writer leases and removes orphan
        objects and stray temp files.  Orphans and temp files are
        off-limits while a live foreign lease exists — they may be a
        concurrent writer between its object and manifest writes —
        unless ``force=True``.  A second ``repair`` pass over an idle
        store reports clean.
        """
        guard = (self._store_lock(shared=False, wait_s=wait_s) if repair
                 else nullcontext())
        with guard:
            report = FsckReport(repaired=repair)
            self._sweep(report, self._check_manifests(report), force=force)
            return report

    def gc(self, tmp_older_than_s: Optional[float] = None,
           purge_quarantine: bool = False,
           wait_s: Optional[float] = None,
           force: bool = False) -> Dict[str, Any]:
        """Sweep garbage: orphan objects, stray temp files, quarantine.

        Runs under the **exclusive** store lock with a bounded wait
        (raises :class:`LockTimeout` if writers keep the shared side
        busy past ``wait_s``) the maintenance sweep shared with
        :meth:`fsck`: stale writer leases (dead pid or expired
        heartbeat) are broken and logged in the returned summary, and
        orphan objects and stray temp files are deleted **only when no
        live foreign lease exists** — a live lease means a writer may
        be between its object and manifest writes, and its orphan is
        its in-flight work.  ``force=True`` overrides the lease
        protection (for operators who know the fleet is dead).

        ``tmp_older_than_s`` defaults to 0 with lease accounting active
        (liveness is explicit, no mtime guess needed) and to the legacy
        3600 s guard on a ``locking=False`` store.  Returns removal
        counts per category plus the broken/live lease names.
        """
        if tmp_older_than_s is None:
            tmp_older_than_s = 0.0 if self.locking else 3600.0
        with self._store_lock(shared=False, wait_s=wait_s):
            report = FsckReport(repaired=True)
            live = self._sweep(
                report, {entry.filename for entry in self.index().values()},
                force=force, tmp_older_than_s=tmp_older_than_s)
            quarantined = 0
            if purge_quarantine:
                for path in _list_dir(self.quarantine_dir):
                    try:
                        path.unlink()
                        quarantined += 1
                    except OSError:
                        pass
            if not live and self.locking:
                self._sweep_key_locks()
            return {"orphan_objects": len(report.orphan_objects),
                    "stray_tmp": len(report.stray_tmp),
                    "quarantined": quarantined,
                    "skipped_leased": len(report.leased_orphans),
                    "broken_leases": report.broken_leases,
                    "live_leases": [lease.path.name for lease in live]}

    def _sweep_key_locks(self) -> None:
        """Remove per-key lock files (safe: we hold the exclusive lock).

        Writers acquire the store's shared side around every file
        mutation *after* taking their per-key lock, so while the
        exclusive lock is held no writer is inside a per-key critical
        section; deleting the lock files cannot split a mutex.  The
        store-level lock file itself is kept (we are holding it).
        """
        for path in self.locks_dir.glob("key.*.lock"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent sweep
                pass
