"""The content-addressed artifact store: a directory and one class.

Layout of a store directory::

    objects/     <key>.json | <key>.npz    the payloads
    manifest/    <key>.json                one index entry per key
    quarantine/  <filename>[.n]            corrupt objects, moved aside
    locks/       store.lock, key.<key>.lock    the concurrency protocol

:class:`ArtifactStore` does its file IO on that directory, and
:func:`build_store` resolves every store argument (a path, a
``spawn_config()`` dict or a live store) into one.

Writes are *atomic*: the object is written first (a hidden temp file in
the same directory plus :func:`os.replace`), the manifest entry only
after the object exists.  A key is a *hit* only when both are present,
so a crash mid-write (a stray temp file, or an object without its
manifest entry) can never surface as a corrupt hit — the next producer
simply recomputes and overwrites.

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

Keys are content addresses of the *producing* configuration
(:mod:`repro.store.keys`), every producer is seed-deterministic and no
payload records how or when it was computed, so equal keys hold equal
bytes.  What makes two writers of one key, or a mixed or partial copy
of a store, safe is the manifest digest: each object is installed whole
(the last ``os.replace`` wins), and an object that does not match the
manifest entry beside it is quarantined on read, never returned.  Hosts
share results by copying ``objects/`` and then ``manifest/`` into
another store and running :meth:`ArtifactStore.fsck`.

Beyond reads and writes, a store has:

* a **concurrency protocol** (``locking=True``, the default): any
  number of writer processes and one maintenance process can share a
  store directory.  Each put takes the *shared* side of the store lock
  (:mod:`repro.store.locks`, taken through a turnstile so a waiter
  keeps its place), then the key's write lock inside it, and holds
  both across the object and its manifest entry; reads stay lock-free
  on the hit path (the digest check guarantees integrity, not a lock);
* **maintenance**: :meth:`ArtifactStore.fsck` audits the whole store
  (digests, parseability, dangling entries, orphan objects, stray temp
  files) and :meth:`ArtifactStore.gc` sweeps the garbage.  Both take
  the *exclusive* side of the store lock with a bounded wait, so they
  never see a put half done: every orphan object and temp file they
  find is a dead writer's leftover.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
import time
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Mapping, NoReturn, Optional, Tuple, Union)

from .locks import DEFAULT_LOCK_TIMEOUT_S, FileLock
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

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

    Identical payloads produce identical bytes, hence identical digests.
    """
    from ..io.results import to_jsonable

    return json.dumps(to_jsonable(payload), indent=2,
                      sort_keys=True).encode()


def encode_array_bytes(arrays: Mapping[str, "np.ndarray"]) -> bytes:
    """The canonical npz payload encoding of the store: members are
    stored, not deflated (:func:`decode_array_bytes` reads both)."""
    if not arrays:
        raise ValueError("cannot store an empty array payload")
    import numpy as np

    buffer = io.BytesIO()
    np.savez(buffer, **{str(name): np.asarray(value)
                        for name, value in arrays.items()})
    return buffer.getvalue()


def decode_json_bytes(data: bytes) -> Any:
    """Parse a JSON object payload (raises ``ValueError`` when torn)."""
    return json.loads(data)


def decode_array_bytes(data: bytes) -> Dict[str, "np.ndarray"]:
    """Parse an npz object payload (raises on a torn/corrupt archive)."""
    import numpy as np

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


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + replace,
    creating the directory on first use.

    The temp file is hidden and ends in ``.tmp``, the pattern
    ``fsck``/``gc`` sweep after an interrupted write.
    """
    def make_temp() -> Tuple[int, str]:
        return tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                dir=path.parent)

    try:
        handle, temp_name = make_temp()
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = make_temp()
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


def _move(source: Path, destination: Path) -> None:
    """Rename ``source`` to ``destination``, creating its directory."""
    destination.parent.mkdir(parents=True, exist_ok=True)
    os.replace(source, destination)


def _unlink(path: Path) -> bool:
    """Remove ``path``; ``False`` (not an error) when already absent."""
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    return True


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
        """The entry's object path, relative to the store root."""
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
    #: Object files whose key has no manifest file.
    orphan_objects: List[str] = field(default_factory=list)
    #: Leftover ``*.tmp`` files from interrupted writes.
    stray_tmp: List[str] = field(default_factory=list)
    #: True when the audit also repaired what it found.
    repaired: bool = False

    def clean(self) -> bool:
        """True when the audit found nothing wrong."""
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
                ("stray temp files", self.stray_tmp)):
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

    ``ArtifactStore(path)`` creates the store directory on first use; a
    path that is not a directory raises :class:`ValueError`.
    ``locking=False`` restores the single-process store (no locks) —
    kept for the concurrency-overhead benchmark baseline and
    for callers that own the directory exclusively.
    """

    def __init__(self, root: PathLike, *, locking: bool = True):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifest_dir = self.root / "manifest"
        self.quarantine_dir = self.root / "quarantine"
        self.locks_dir = self.root / "locks"
        self.locking = bool(locking)
        try:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            self.manifest_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise ValueError(f"store path {self.root} is not a store "
                             f"directory ({error})") from None
        #: Retries EAGAIN-class OS blips around lock acquisition and
        #: every file operation.
        self.retry = RetryPolicy(token=f"store:{os.getpid()}")

    def _call(self, operation: Callable[..., Any], *args: Any) -> Any:
        """One file operation, retried per
        :func:`~repro.store.retry.is_transient_os_error`."""
        return self.retry.call(lambda: operation(*args))

    def _manifest_path(self, key: str) -> Path:
        return self.manifest_dir / f"{key}.json"

    # -- locks --------------------------------------------------------------------

    @contextmanager
    def _store_lock(self, shared: bool, wait_s: Optional[float] = None):
        """The store lock: its shared side around one put, its exclusive
        side (bounded by ``wait_s``) around ``gc`` and ``fsck``.

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
            lock.unlock()

    @contextmanager
    def _write_guard(self, key: str) -> Iterator[None]:
        """One put's locks: the shared store lock, then ``key``'s write
        lock inside it, both held until the put has written its object
        and its manifest entry.

        Taken once per put and never nested: a second shared
        acquisition would queue at the turnstile behind a maintenance
        waiter that is itself waiting for this writer.
        """
        if not self.locking:
            yield
            return
        with self._store_lock(shared=True):
            with FileLock(self.locks_dir / f"key.{key}.lock").holding():
                yield

    # -- write --------------------------------------------------------------------

    def _record(self, entry: ManifestEntry) -> ManifestEntry:
        """Write ``entry``'s manifest file: the second leg of a put."""
        self._call(_atomic_write_bytes, self._manifest_path(entry.key),
                   entry.to_bytes())
        return entry

    def put_object(self, entry: ManifestEntry, data: bytes) -> ManifestEntry:
        """Write one artifact: the object, then its manifest entry.

        ``put_json``/``put_arrays`` land here.  The payload is checked
        against ``entry.digest`` before anything is written (a
        digest-less entry gets one), so corrupt bytes can never be
        installed as a hit.  With ``locking``, both files are written
        under :meth:`_write_guard`, so the entry names the digest of
        the object beside it and maintenance never sees the object
        without its entry.
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
            self._call(_atomic_write_bytes,
                       self.objects_dir / entry.filename, data)
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

    def entry(self, key: str) -> Optional[ManifestEntry]:
        """The manifest entry of ``key`` — ``None`` unless key is a full hit.

        A missing or unparseable manifest, a missing object or a
        concurrent discard is a miss; any other OS error propagates, so
        an unreadable store never masquerades as a miss.
        """
        _check_key(key)
        try:
            raw = self._call(self._manifest_path(key).read_bytes)
            entry = ManifestEntry.from_dict(json.loads(raw))
        except (FileNotFoundError, KeyError, ValueError, TypeError):
            return None
        exists = (self.objects_dir / entry.filename).exists()
        return entry if exists else None

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
        taken = {path.name for path in self._call(_list_dir,
                                                  self.quarantine_dir)}
        name = entry.filename
        suffix = 0
        while name in taken:
            suffix += 1
            name = f"{entry.filename}.{suffix}"
        try:
            self._call(_move, self.objects_dir / entry.filename,
                       self.quarantine_dir / name)
        except FileNotFoundError:
            pass
        self._call(_unlink, self._manifest_path(entry.key))
        return f"quarantine/{name}"

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
            data = self._call((self.objects_dir / entry.filename).read_bytes)
        except FileNotFoundError:
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
        for path in self._call(_list_dir, self.manifest_dir):
            if path.suffix != ".json":
                continue
            entry = self.entry(path.stem)
            if entry is not None:
                entries[entry.key] = entry
        return entries

    def keys(self) -> Iterator[str]:
        """Iterate over the keys with a valid manifest entry *and* object."""
        return iter(self.index())

    def __len__(self) -> int:
        return len(self.index())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}({str(self.root)!r})"

    # -- integrity ----------------------------------------------------------------

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
            # Not via put_object: the caller (fsck --repair) already
            # holds the exclusive store lock, and a same-process shared
            # acquisition on a second fd would self-conflict under flock
            # semantics.
            return self._record(ManifestEntry(
                key=key, kind=kind, filename=object_path.name,
                meta={"rebuilt": True}, digest=_sha256(data)))
        return None

    def _check_manifests(self, report: FsckReport) -> None:
        """Audit every manifest entry into ``report`` (repairing when
        ``report.repaired``)."""
        repair = report.repaired
        for manifest_path in sorted(self.manifest_dir.glob("*.json")):
            key = manifest_path.stem
            try:
                entry = ManifestEntry.from_dict(
                    json.loads(manifest_path.read_text()))
            except (ValueError, KeyError):
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
            if not (self.objects_dir / entry.filename).exists():
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

    def _sweep(self, report: FsckReport) -> None:
        """The one orphan/temp-file pass of ``fsck`` and ``gc``.

        Runs under the exclusive store lock, so no put is in flight:
        every object whose key has no manifest file and every temp file
        is a dead writer's leftover.  A repair removes them; an audit
        lists them.  An unreadable manifest still claims its object,
        which ``fsck --repair`` rebuilds the entry from.
        """
        repair = report.repaired
        for path in _list_dir(self.objects_dir):
            if _is_tmp(path.name) or self._manifest_path(path.stem).exists():
                continue
            if repair:
                _unlink(path)
            report.orphan_objects.append(path.name)
        for directory in (self.objects_dir, self.manifest_dir):
            for path in _list_dir(directory):
                if _is_tmp(path.name):
                    if repair:
                        _unlink(path)
                    report.stray_tmp.append(str(path.relative_to(self.root)))

    def fsck(self, repair: bool = False,
             wait_s: Optional[float] = None) -> FsckReport:
        """Audit every artifact: digests, parseability, dangling state.

        Runs under the **exclusive** store lock (bounded ``wait_s``;
        raises :class:`LockTimeout` when writers keep it busy), so an
        audit never mistakes a writer's in-flight object for an orphan.
        With ``repair=True`` it also quarantines corrupt objects, drops
        dangling manifest entries and **rebuilds** a corrupt manifest
        from its intact object (digest recomputed) instead of
        discarding the work; then the sweep shared with :meth:`gc`
        removes orphan objects and stray temp files.  A second
        ``repair`` pass over an idle store reports clean.
        """
        with self._store_lock(shared=False, wait_s=wait_s):
            report = FsckReport(repaired=repair)
            self._check_manifests(report)
            self._sweep(report)
            return report

    def gc(self, purge_quarantine: bool = False,
           wait_s: Optional[float] = None) -> Dict[str, int]:
        """Sweep garbage: orphan objects, stray temp files, key-lock
        files and (with ``purge_quarantine``) quarantined objects.

        Runs under the **exclusive** store lock with a bounded wait
        (raises :class:`LockTimeout` if writers keep the shared side
        busy past ``wait_s``) the sweep shared with :meth:`fsck`.
        Returns the removal count per category.
        """
        with self._store_lock(shared=False, wait_s=wait_s):
            report = FsckReport(repaired=True)
            self._sweep(report)
            quarantined = 0
            if purge_quarantine:
                for path in _list_dir(self.quarantine_dir):
                    try:
                        path.unlink()
                        quarantined += 1
                    except OSError:
                        pass
            if self.locking:
                self._sweep_key_locks()
            return {"orphan_objects": len(report.orphan_objects),
                    "stray_tmp": len(report.stray_tmp),
                    "quarantined": quarantined}

    def _sweep_key_locks(self) -> None:
        """Remove per-key lock files (safe: we hold the exclusive lock).

        A writer takes its key lock only while it holds the shared
        store lock, so while the exclusive lock is held no key lock is
        held or awaited; deleting the lock files cannot split a mutex.
        The store-level lock file itself is kept (we are holding it).
        """
        for path in self.locks_dir.glob("key.*.lock"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent sweep
                pass


def build_store(config: Union[None, PathLike, Mapping[str, Any],
                              ArtifactStore]) -> Optional[ArtifactStore]:
    """Resolve a store argument; the inverse of
    :meth:`ArtifactStore.spawn_config`.

    The one place a store argument is resolved: the campaign engine,
    its supervised workers and the suite runner all call it.
    Strings/paths name a store directory (a path that is not one raises
    :class:`ValueError`); ``None`` passes through (store-less engines);
    live stores pass through unchanged.
    """
    if config is None or isinstance(config, ArtifactStore):
        return config
    if isinstance(config, (str, Path)):
        return ArtifactStore(config)
    if config.get("kind") == "local":
        return ArtifactStore(str(config["root"]),
                             locking=bool(config.get("locking", True)))
    raise ValueError(f"unknown store config {config!r}")
