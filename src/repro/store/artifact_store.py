"""The content-addressed artifact store: a directory and one class.

Layout of a store directory::

    objects/     <key>.json | <key>.npz    the payloads
    manifest/    <key>.json                one index entry per key
    quarantine/  <filename>[.n]            corrupt objects, moved aside
    locks/       store.lock, key.<key>.lock    the concurrency protocol

:class:`ArtifactStore` does its file IO on that directory, and
:func:`build_store` resolves every store argument (a path or a live
store) into one.

Writes are *atomic*: the object is written first (a hidden temp file in
the same directory plus :func:`os.replace`), the manifest entry only
after the object exists.  A key is a *hit* only when both are present,
so a crash mid-write (a stray temp file, or an object without its
manifest entry) can never surface as a corrupt hit — the next producer
simply recomputes and overwrites.  Every put goes through
:meth:`ArtifactStore.put_object`.  An array payload is *streamed*: its
npz members are written straight into the temp file, the data in
1 MiB slices of each array's memory, so no copy of the payload bytes
is ever built.  The digest the manifest entry records is taken by
reading the temp file back in 1 MiB chunks before it is installed.

Reads are *verified*: every manifest entry records the SHA-256 digest of
the payload bytes, and :meth:`ArtifactStore.get_json` /
:meth:`ArtifactStore.get_arrays` re-hash the object before parsing it.
One read serves both: the object is opened once, hashed in 1 MiB
chunks, rewound and decoded from the same handle, so arrays are copied
from the file into their buffers, never out of a bytes copy of it
(``fsck`` verifies objects the same way).
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

* a **concurrency protocol**: any number of writer processes and one
  maintenance process can share a store directory.  Each put takes the
  *shared* side of the store lock (:mod:`repro.store.locks`, taken
  through a turnstile so a waiter keeps its place), then the key's
  write lock inside it, and holds both across the object and its
  manifest entry; reads stay lock-free
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
import functools
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
from typing import (TYPE_CHECKING, Any, BinaryIO, Callable, Dict, Iterator,
                    List, Mapping, NoReturn, Optional, Tuple, Union)

from .locks import DEFAULT_LOCK_TIMEOUT_S, FileLock
from .retry import RetryPolicy, is_transient_os_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

PathLike = Union[str, Path]

#: An object's bytes, or a function that writes them into a binary file.
Payload = Union[bytes, Callable[[BinaryIO], Any]]

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


def encode_json_bytes(payload: Any) -> bytes:
    """The canonical JSON payload encoding of the store.

    Identical payloads produce identical bytes, hence identical digests.
    """
    from ..io.results import to_jsonable

    return json.dumps(to_jsonable(payload), indent=2,
                      sort_keys=True).encode()


#: Chunk size of the store's streamed IO: an array member is written,
#: and an object hashed, 1 MiB at a time.
_CHUNK_BYTES = 1 << 20


def _write_npz(handle: BinaryIO, arrays: Mapping[str, "np.ndarray"]) -> None:
    """Write ``arrays`` into ``handle`` as the store's npz payload.

    The one array encoder; its bytes are ``np.savez``'s: one stored
    (not deflated) zip64 ``<name>.npy`` member per array, in order.
    NumPy's ``write_array`` copies a zip member's data out in
    ``tobytes`` chunks of up to 16 MiB, so a C-contiguous array of a
    plain dtype is written as its ``.npy`` header and then 1 MiB slices
    of its own memory; any other array goes through ``write_array``.
    """
    if not arrays:
        raise ValueError("cannot store an empty array payload")
    import numpy as np
    from numpy.lib import format as npy_format

    with zipfile.ZipFile(handle, mode="w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for name, value in arrays.items():
            array = np.asarray(value)
            with archive.open(f"{name}.npy", mode="w",
                              force_zip64=True) as member:
                if (not array.flags.c_contiguous or array.dtype.hasobject
                        or array.dtype.names is not None):
                    npy_format.write_array(member, array)
                    continue
                npy_format.write_array_header_1_0(
                    member, npy_format.header_data_from_array_1_0(array))
                data = array.reshape(-1).view(np.uint8)
                for start in range(0, data.size, _CHUNK_BYTES):
                    member.write(data[start:start + _CHUNK_BYTES])


def _read_npz(handle: BinaryIO) -> Dict[str, "np.ndarray"]:
    """Parse an npz payload from ``handle`` (raises when torn/corrupt);
    NumPy copies each member into its array in 256 KiB reads."""
    import numpy as np

    with np.load(handle, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _read_json(handle: BinaryIO) -> Any:
    return decode_json_bytes(handle.read())


def encode_array_bytes(arrays: Mapping[str, "np.ndarray"]) -> bytes:
    """The store's npz payload of ``arrays`` as bytes (the encoder
    ``put_arrays`` streams into the object file, run on a buffer)."""
    buffer = io.BytesIO()
    _write_npz(buffer, arrays)
    return buffer.getvalue()


def decode_json_bytes(data: bytes) -> Any:
    """Parse a JSON object payload (raises ``ValueError`` when torn)."""
    return json.loads(data)


def decode_array_bytes(data: bytes) -> Dict[str, "np.ndarray"]:
    """Parse npz payload bytes (raises on a torn/corrupt archive); reads
    stored and deflated members alike."""
    return _read_npz(io.BytesIO(data))


def _parses(filename: str, handle: BinaryIO) -> bool:
    """True when ``handle`` parses as the payload kind ``filename`` names."""
    decode = _read_json if filename.endswith(".json") else _read_npz
    try:
        decode(handle)
    except _DECODE_ERRORS:
        return False
    return True


def _sha256_file(handle: BinaryIO) -> str:
    """SHA-256 of ``handle`` from its start, read in 1 MiB chunks; the
    handle is left rewound."""
    digest = hashlib.sha256()
    chunk = bytearray(_CHUNK_BYTES)
    view = memoryview(chunk)
    handle.seek(0)
    while True:
        size = handle.readinto(chunk)
        if not size:
            break
        digest.update(view[:size])
    handle.seek(0)
    return digest.hexdigest()


def _open_hashed(path: Path) -> Tuple[BinaryIO, str]:
    """``path`` opened for reading, rewound, and its SHA-256: one read
    verifies an object and the same handle then decodes it."""
    handle = open(path, "rb")
    try:
        return handle, _sha256_file(handle)
    except BaseException:
        handle.close()
        raise


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


def _atomic_write_bytes(path: Path, payload: Payload) -> str:
    """Install ``payload`` at ``path`` via a same-directory temp file +
    replace, creating the directory on first use; returns the SHA-256
    of the installed bytes.

    ``payload`` is the bytes, or a function that writes them into the
    temp file.  The digest comes from reading the temp file back before
    the replace, so it names the bytes on disk whatever was streamed.
    The temp file is hidden and ends in ``.tmp``, the pattern
    ``fsck``/``gc`` sweep after an interrupted write; a writer that
    raises leaves none behind.
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
        with os.fdopen(handle, "w+b") as temp_file:
            if callable(payload):
                payload(temp_file)
            else:
                temp_file.write(payload)
            digest = _sha256_file(temp_file)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return digest


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
                ("stray temp files (removed)" if self.repaired
                 else "stray temp files", self.stray_tmp)):
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
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifest_dir = self.root / "manifest"
        self.quarantine_dir = self.root / "quarantine"
        self.locks_dir = self.root / "locks"
        try:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            self.manifest_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise ValueError(f"store path {self.root} is not a store "
                             f"directory ({error})") from None
        #: Retries EAGAIN-class OS blips around lock acquisition and
        #: every file operation.  Its jitter token is the pid of the
        #: process that retries, so forked workers sharing this store
        #: spread their retries apart.
        self.retry = RetryPolicy()

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
        with self._store_lock(shared=True):
            with FileLock(self.locks_dir / f"key.{key}.lock").holding():
                yield

    # -- write --------------------------------------------------------------------

    def _record(self, entry: ManifestEntry) -> ManifestEntry:
        """Write ``entry``'s manifest file: the second leg of a put."""
        self._call(_atomic_write_bytes, self._manifest_path(entry.key),
                   entry.to_bytes())
        return entry

    def put_object(self, entry: ManifestEntry,
                   payload: Payload) -> ManifestEntry:
        """Write one artifact: the object, then its manifest entry.

        Every put lands here: ``put_json`` with the payload bytes,
        ``put_arrays`` with the npz writer, which streams the arrays
        straight into the object's temp file.  The entry records
        the SHA-256 of the bytes read back from that temp file before it
        is installed.  Both files are written under
        :meth:`_write_guard`, so the entry names the digest of the
        object beside it and maintenance never sees the object without
        its entry.
        """
        _check_key(entry.key)
        with self._write_guard(entry.key):
            digest = self._call(_atomic_write_bytes,
                                self.objects_dir / entry.filename, payload)
            return self._record(dataclasses.replace(entry, digest=digest))

    def put_json(self, key: str, payload: Any, *, kind: str = "json",
                 meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        """Store a JSON-serialisable payload under ``key``."""
        entry = ManifestEntry(key=_check_key(key), kind=kind,
                              filename=f"{key}.json", meta=dict(meta or {}))
        return self.put_object(entry, encode_json_bytes(payload))

    def put_arrays(self, key: str, arrays: Mapping[str, np.ndarray], *,
                   kind: str = "arrays",
                   meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        """Store a named-array payload under ``key`` as an npz archive,
        written member by member into the object file."""
        entry = ManifestEntry(key=_check_key(key), kind=kind,
                              filename=f"{key}.npz", meta=dict(meta or {}))
        return self.put_object(entry,
                               functools.partial(_write_npz, arrays=arrays))

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

    def _read(self, key: str, decode: Callable[[BinaryIO], Any]) -> Any:
        """Fetch, verify and decode one payload; quarantine what fails.

        One read serves both checks: the object is opened once and
        hashed in 1 MiB chunks, and when the digest matches ``decode``
        parses from the same handle, rewound.  Raises ``KeyError`` on a
        miss and :class:`StoreIntegrityError` (after quarantining) on a
        digest mismatch or an unparseable payload.
        """
        entry = self.entry(key)
        if entry is None:
            raise KeyError(f"artifact {key!r} is not in the store")
        try:
            handle, digest = self._call(_open_hashed,
                                        self.objects_dir / entry.filename)
        except FileNotFoundError:
            # A concurrent discard/gc between the manifest read and this
            # read: a clean miss, not a raw error escaping the engine.
            raise KeyError(
                f"artifact {key!r} object disappeared between the "
                f"manifest read and the payload read (concurrent "
                f"discard or gc); the key is a miss"
            ) from None
        cause = None
        with handle:
            if entry.digest is not None and digest != entry.digest:
                problem = ("does not match its recorded SHA-256 digest "
                           "(torn or truncated write)")
            else:
                try:
                    return decode(handle)
                except _DECODE_ERRORS as error:
                    if is_transient_os_error(error):
                        raise
                    problem = f"holds an unparseable payload ({error})"
                    cause = error
        self._reject(entry, problem, cause)

    def get_json(self, key: str) -> Any:
        """Load the JSON payload stored under ``key``.

        A corrupt payload is quarantined and raised as
        :class:`StoreIntegrityError` — never returned, never a raw
        ``JSONDecodeError``.
        """
        return self._read(key, _read_json)

    def get_arrays(self, key: str) -> Dict[str, np.ndarray]:
        """Load the named-array payload stored under ``key``.

        The arrays are decoded from the verified object file, never
        from a copy of its bytes.  A corrupt payload is quarantined and
        raised as :class:`StoreIntegrityError` — never returned, never a
        raw ``BadZipFile``.
        """
        return self._read(key, _read_npz)

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
            handle, digest = _open_hashed(self.objects_dir / entry.filename)
        except OSError:
            return False
        with handle:
            if entry.digest is not None and digest != entry.digest:
                return False
            return _parses(entry.filename, handle)

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
                handle, digest = _open_hashed(object_path)
            except OSError:
                continue
            with handle:
                if not _parses(object_path.name, handle):
                    continue
            # Not via put_object: the caller (fsck --repair) already
            # holds the exclusive store lock, and a same-process shared
            # acquisition on a second fd would self-conflict under flock
            # semantics.
            return self._record(ManifestEntry(
                key=key, kind=kind, filename=object_path.name,
                meta={"rebuilt": True}, digest=digest))
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
            # A writer takes its key lock only inside the shared store
            # lock, so under the exclusive side no key lock is held or
            # awaited: deleting the key-lock files cannot split a mutex.
            for path in self.locks_dir.glob("key.*.lock"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent sweep
                    pass
            return {"orphan_objects": len(report.orphan_objects),
                    "stray_tmp": len(report.stray_tmp),
                    "quarantined": quarantined}


def build_store(config: Union[None, PathLike, ArtifactStore]
                ) -> Optional[ArtifactStore]:
    """Resolve a store argument.

    The one place a store argument is resolved: the campaign engine and
    the suite runner call it.  Strings/paths name a store directory (a
    path that is not one raises :class:`ValueError`); ``None`` passes
    through (store-less engines); live stores pass through unchanged.
    """
    if config is None or isinstance(config, ArtifactStore):
        return config
    if isinstance(config, (str, Path)):
        return ArtifactStore(config)
    raise ValueError(f"unknown store config {config!r}")
