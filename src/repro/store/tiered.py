"""A local artifact store with a remote tier behind it.

:class:`TieredStore` is what a campaign engine mounts when a fleet
shares one warm cache.  It is two :class:`~repro.store.artifact_store
.ArtifactStore` instances — itself, over the local directory, and a
:class:`~repro.store.remote.RemoteStore` — plus a pending-upload
journal; every reader, the verification and the quarantine path are the
one :class:`ArtifactStore` implementation:

* **writes** land locally (atomic, leased, digest-recorded), then
  replicate to the remote.  If the remote is unreachable — a raised
  ``ConnectionError``/``TimeoutError``, which includes an open circuit
  breaker — the key is appended to a crash-safe **pending-upload
  journal** and the write still succeeds: campaigns degrade to
  local-only operation instead of dying mid-grid;
* **reads** hit the local store first; on a local miss (or after a
  corrupt local copy is quarantined) the remote is consulted and a hit
  is **backfilled** into the local tier (verified byte-for-byte via the
  manifest digest) so the next read is local.  A partitioned remote
  turns remote consultation into a clean miss — the engine recomputes,
  which is always correct under content addressing;
* **sync** (the ``repro-ht store sync`` CLI) drains the journal once
  the remote heals.  Content keys make the drain idempotent: a key
  whose remote digest already matches is skipped, a half-drained
  journal re-runs harmlessly, and two hosts draining overlapping
  journals converge on identical remote state.

Index and maintenance calls (``keys``, ``index``, ``fsck``, ``gc``)
see the local tier only.  The journal is a JSON-lines file under the
local store root (``pending_uploads.jsonl``), append-only on the hot
path (single ``O_APPEND`` writes are atomic for these line sizes) and
compacted under a file lock during :meth:`TieredStore.sync`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from .artifact_store import (
    ArtifactStore,
    ManifestEntry,
    PathLike,
    Store,
    StoreIntegrityError,
)
from .locks import FileLock
from .remote import RemoteStore

#: Exceptions that mean "the remote is unavailable right now" — the
#: degraded-mode trigger.  ``CircuitOpenError`` subclasses
#: ``ConnectionError``, so a tripped breaker degrades identically.
REMOTE_UNAVAILABLE = (ConnectionError, TimeoutError)

JOURNAL_FILENAME = "pending_uploads.jsonl"


class PendingUploadJournal:
    """Crash-safe record of writes that could not reach the remote.

    One JSON line per journaled key, append-only while degraded;
    compaction (dedup + drop-drained) happens under a file lock inside
    :meth:`TieredStore.sync`.  Losing the journal is safe — content
    addressing means a full local→remote reconciliation can always
    rebuild it — but keeping it makes ``store sync`` O(pending) instead
    of O(store).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def _lock(self) -> FileLock:
        return FileLock(self.path.with_suffix(".lock"))

    @staticmethod
    def _line(entry: ManifestEntry) -> str:
        return json.dumps({"key": entry.key, "kind": entry.kind,
                           "filename": entry.filename,
                           "digest": entry.digest,
                           "meta": dict(entry.meta)}, sort_keys=True)

    def append(self, entry: ManifestEntry) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A single O_APPEND write of a short line is atomic on POSIX —
        # concurrent degraded writers interleave whole lines.
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, (self._line(entry) + "\n").encode())
        finally:
            os.close(fd)

    def pending(self) -> List[ManifestEntry]:
        """Journaled entries, deduplicated by key (last line wins)."""
        if not self.path.exists():
            return []
        by_key: Dict[str, ManifestEntry] = {}
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = ManifestEntry.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                # A torn trailing line (crash mid-append) is dropped;
                # the artifact itself is safe in the local store and a
                # reconcile pass can re-journal it.
                continue
            by_key[entry.key] = entry
        return list(by_key.values())

    def rewrite(self, entries: List[ManifestEntry]) -> None:
        """Replace the journal contents (compaction; lock held)."""
        with self._lock().holding(shared=False, timeout_s=10.0):
            if not entries:
                self.path.unlink(missing_ok=True)
                return
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text("".join(self._line(entry) + "\n"
                                   for entry in entries))
            os.replace(tmp, self.path)


class TieredStore(ArtifactStore):
    """The local store with a :class:`RemoteStore` behind it.

    A :class:`TieredStore` *is* the local tier — an
    :class:`ArtifactStore` over ``local``'s directory, with its locks,
    leases, readers and maintenance — plus the remote and the
    pending-upload journal.  It overrides only where a tier boundary is
    crossed: :meth:`put_object` (write-through), :meth:`entry`
    (backfill on a local miss) and the read retry after a corrupt local
    copy is quarantined.  ``local`` stays reachable as a plain local
    store; ``degraded_writes``/``remote_hits``/``backfills`` count what
    the tiers actually did, for tests and operators.
    """

    def __init__(self, local: Union[ArtifactStore, PathLike],
                 remote: Union[RemoteStore, str, Dict[str, Any]]):
        if isinstance(local, ArtifactStore):
            super().__init__(local.root, locking=local.locking,
                             lock_timeout_s=local.lock_timeout_s,
                             lease_ttl_s=local.lease_ttl_s)
            self._local: Optional[ArtifactStore] = local
        else:
            super().__init__(local)
            self._local = None
        self.remote = (remote if isinstance(remote, RemoteStore)
                       else RemoteStore(remote))
        self.journal = PendingUploadJournal(self.root / JOURNAL_FILENAME)
        self.degraded_writes = 0
        self.remote_hits = 0
        self.backfills = 0

    @property
    def local(self) -> ArtifactStore:
        """The local tier as a plain store: no backfill, no write-through."""
        if self._local is None:
            self._local = ArtifactStore(self.root, locking=self.locking,
                                        lock_timeout_s=self.lock_timeout_s,
                                        lease_ttl_s=self.lease_ttl_s)
        return self._local

    def put_object(self, entry: ManifestEntry, data: bytes) -> ManifestEntry:
        """Write locally, then replicate; journal when the remote is down."""
        entry = super().put_object(entry, data)
        try:
            self.remote.put_object(entry, data)
        except REMOTE_UNAVAILABLE:
            self.journal.append(entry)
            self.degraded_writes += 1
        return entry

    def entry(self, key: str) -> Optional[ManifestEntry]:
        """The local entry of ``key``, backfilled from the remote on a
        local miss (verified byte-for-byte, so the next read is local).

        An unreachable remote (connection/timeout/open breaker) or a
        corrupt remote copy is a clean miss — recomputing is always
        correct, waiting is not.
        """
        entry = super().entry(key)
        if entry is not None:
            return entry
        try:
            remote_entry, data = self.remote._verified_bytes(key)
        except REMOTE_UNAVAILABLE + (KeyError, StoreIntegrityError):
            return None
        self.remote_hits += 1
        installed = super().put_object(remote_entry, data)
        self.backfills += 1
        return installed

    def _read(self, key: str, decode: Callable[[bytes], Any]) -> Any:
        try:
            return super()._read(key, decode)
        except StoreIntegrityError:
            # The corrupt local copy is quarantined, so the key is a
            # local miss now: one more read backfills it from the remote.
            return super()._read(key, decode)

    # -- degraded-mode drain ------------------------------------------------------

    def pending_uploads(self) -> List[ManifestEntry]:
        return self.journal.pending()

    def sync(self, *, reset_breaker: bool = True) -> Dict[str, Any]:
        """Drain the pending-upload journal to the remote, idempotently.

        Per journaled key: skip when the remote already holds the same
        digest (another host drained it, or the pre-partition upload
        actually landed), upload otherwise, keep in the journal on
        continued unreachability.  Returns per-category counts; rc-style
        success is ``remaining == 0``.
        """
        if reset_breaker:
            self.remote.breaker.reset()
        uploaded, skipped, missing, remaining = [], [], [], []
        for entry in self.journal.pending():
            try:
                remote_entry = self.remote.entry(entry.key)
                if (remote_entry is not None
                        and remote_entry.digest == entry.digest
                        and entry.digest is not None):
                    skipped.append(entry.key)
                    continue
                try:
                    data = self.local.object_bytes(entry.key)
                except KeyError:
                    # Journaled but gone locally (gc'd/discarded):
                    # nothing to upload, nothing lost — drop it.
                    missing.append(entry.key)
                    continue
                self.remote.put_object(entry, data)
                uploaded.append(entry.key)
            except REMOTE_UNAVAILABLE:
                remaining.append(entry)
        self.journal.rewrite(remaining)
        return {"uploaded": uploaded, "skipped": skipped,
                "missing_local": missing,
                "remaining": [entry.key for entry in remaining]}

    def spawn_config(self) -> Dict[str, Any]:
        """A picklable description a worker process can rebuild from."""
        return {"kind": "tiered",
                "local": self.local.spawn_config(),
                "remote": self.remote.spawn_config()}


def build_store(config: Union[None, PathLike, Mapping[str, Any], Store]
                ) -> Optional[Store]:
    """Build any store flavour from a picklable config.

    The inverse of every store's ``spawn_config()`` and the one place a
    store argument is resolved: the campaign engine, its supervised
    workers and the suite runner all call it.  Strings/paths mean a
    plain local store; ``None`` passes through (store-less engines);
    live stores pass through unchanged.
    """
    if config is None or isinstance(config, ArtifactStore):
        return config
    if isinstance(config, (str, Path)):
        return ArtifactStore(config)
    kind = config.get("kind")
    if kind == "local":
        return ArtifactStore(str(config["root"]),
                             locking=bool(config.get("locking", True)))
    if kind == "remote":
        return RemoteStore(dict(config["transport"]))
    if kind == "tiered":
        return TieredStore(build_store(dict(config["local"])),
                           build_store(dict(config["remote"])))
    raise ValueError(f"unknown store config {config!r}")
