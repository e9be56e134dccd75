"""The artifact store over a remote blob transport.

:class:`RemoteStore` is an :class:`~repro.store.artifact_store
.ArtifactStore` — the same put, verified read, quarantine, index and
load code, the same content keys and byte-identical objects and
manifest entries — over any :class:`~repro.store.transport.Transport`
instead of a local directory.  It adds only what a network demands:

* **Upload-then-commit puts.**  The payload is uploaded to a ``tmp/``
  key and *committed* (renamed) to its final ``objects/`` key before
  the manifest entry is written; a crash or partition mid-upload leaves
  a tmp blob, never a half-visible object.  A put is exactly ``put
  tmp`` → ``commit`` → ``put manifest``.
* **Retries behind a circuit breaker.**  Every transport call runs
  under the store's :class:`~repro.store.retry.RetryPolicy` with the
  :func:`~repro.store.retry.is_retryable_error` classification
  (connection resets and timeouts retry with bounded deterministic
  jitter; misses and corruption never do).  After ``failure_threshold``
  consecutive failed operations the breaker opens and every call fails
  fast with :class:`~repro.store.breaker.CircuitOpenError` (a
  ``ConnectionError``) until a cooldown elapses and a half-open probe
  succeeds.  The cooldown is a count of store operations, not wall
  time (the breaker counts its own calls), so breaker behaviour is a
  pure function of the operation sequence.

Locks, writer leases, the object-presence check and ``fsck``/``gc`` are
local-directory capabilities a remote does not have: last-writer-wins
is safe because equal keys hold equal bytes, an :meth:`entry` lookup is
exactly one manifest ``get`` and a read is a manifest ``get`` followed
by an object ``get``.  A corrupt read is quarantined *on the remote*.

Remote key layout (slash-separated transport keys)::

    objects/<key>.json | <key>.npz
    manifest/<key>.json
    tmp/<key>.<digest12>
    quarantine/<filename>[.n]
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from .artifact_store import ArtifactStore, ManifestEntry
from .breaker import CircuitBreaker, CircuitOpenError
from .retry import RetryPolicy
from .transport import Transport, build_transport


class RemoteStore(ArtifactStore):
    """Content-addressed artifact store over a blob transport."""

    def __init__(self, transport: Union[Transport, str, Dict[str, Any]], *,
                 retry: Optional[RetryPolicy] = None):
        # Deliberately not ArtifactStore.__init__: a remote has no local
        # directory to create, lock or lease.
        self.transport = build_transport(transport)
        config = self.transport.spawn_config()
        #: A display name (transports have no local root path).
        self.root = str(config.get("root", config.get("kind", "remote")))
        self.locking = False
        self._lease = None
        self.retry = retry if retry is not None else RetryPolicy(
            token="remote-store")
        self.breaker = CircuitBreaker()

    def _call(self, operation: Callable[..., Any], *args: Any) -> Any:
        """One breaker-guarded, retry-wrapped transport call.

        A ``KeyError`` miss counts as a *successful* round-trip (the
        backend answered); only connection-class failures feed the
        breaker.
        """
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"remote store circuit is open after "
                f"{self.breaker.consecutive_failures} consecutive "
                f"transport failures")
        try:
            result = super()._call(operation, *args)
        except KeyError:
            self.breaker.record_success()
            raise
        except (ConnectionError, TimeoutError):
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    def _write_object(self, entry: ManifestEntry, data: bytes) -> None:
        """Upload to a tmp key, then commit it to the object key."""
        tmp_key = f"tmp/{entry.key}.{entry.digest[:12]}"
        self._call(self.transport.put, tmp_key, data)
        self._call(self.transport.commit, tmp_key, entry.object_key)

    def _has_object(self, entry: ManifestEntry) -> bool:
        """Trusted without a round-trip: the manifest is written last."""
        return True

    def spawn_config(self) -> Dict[str, Any]:
        """A picklable description a worker process can rebuild from."""
        return {"kind": "remote", "transport": self.transport.spawn_config()}
