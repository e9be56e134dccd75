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

One implementation ships here: :class:`LoopbackTransport`, a directory
on the local filesystem.  It is the backend of every local
:class:`ArtifactStore` and, behind a
:class:`~repro.store.remote.RemoteStore`, a remote (a shared NFS/SMB
mount works as a real deployment target out of the box), so the whole
remote stack is testable hermetically.  The fault-injecting decorator
the remote-store tests wrap around it lives with the test suite.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, List, Union


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
    even the *loopback* never exposes a half-written payload.
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
    raise ValueError(f"unknown transport config {config!r}")
