"""Content-addressed artifact store for campaign intermediates.

``repro.store`` persists the expensive intermediates of the detection
protocol — infected designs' summaries, averaged trace tensors, delay
difference and fault-sweep tensors, per-cell campaign results — under
*content addresses*: the SHA-256 of the canonical JSON of the spec
fragment that produces them.  Equal configuration therefore means an
instant hit across runs, processes and hosts, and any perturbation
means a clean miss.  Writes are atomic and indexed by a manifest, which
doubles as the per-cell completion record sharded or interrupted
campaigns resume from.

There is one store implementation, :class:`ArtifactStore`, written
against a byte-blob :class:`Transport`; :class:`RemoteStore` and
:class:`TieredStore` are thin subclasses, and :func:`build_store` turns
a path, a ``spawn_config()`` dict or a live store into a :class:`Store`.
Tensor artifacts share one group codec (:func:`pack_groups`), and every
client goes through one :func:`read_through`.
"""

from .artifact_store import (
    STORE_FORMAT_VERSION,
    ArtifactStore,
    FsckReport,
    ManifestEntry,
    Store,
    StoreIntegrityError,
)
from .artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    DEFAULT_GOLDEN_SIGNATURE,
    golden_signature,
    pack_groups,
    read_through,
    spec_content_fragment,
    unpack_groups,
)
from .breaker import CircuitBreaker, CircuitOpenError
from .keys import canonical_json, stable_key
from .leases import (
    DEFAULT_LEASE_TTL_S,
    LeaseInfo,
    WriterLease,
    break_stale_leases,
    list_leases,
    live_foreign_leases,
)
from .locks import DEFAULT_LOCK_TIMEOUT_S, FileLock, LockTimeout
from .remote import RemoteStore
from .retry import (
    RetryPolicy,
    backoff_delay_s,
    is_retryable_error,
    is_transient_os_error,
)
from .tiered import PendingUploadJournal, TieredStore, build_store
from .transport import LoopbackTransport, Transport, build_transport

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactStore",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_GOLDEN_SIGNATURE",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_LOCK_TIMEOUT_S",
    "FileLock",
    "FsckReport",
    "LeaseInfo",
    "LockTimeout",
    "LoopbackTransport",
    "ManifestEntry",
    "PendingUploadJournal",
    "RemoteStore",
    "RetryPolicy",
    "STORE_FORMAT_VERSION",
    "Store",
    "StoreIntegrityError",
    "TieredStore",
    "Transport",
    "WriterLease",
    "backoff_delay_s",
    "break_stale_leases",
    "build_store",
    "build_transport",
    "canonical_json",
    "golden_signature",
    "is_retryable_error",
    "is_transient_os_error",
    "list_leases",
    "live_foreign_leases",
    "pack_groups",
    "read_through",
    "spec_content_fragment",
    "stable_key",
    "unpack_groups",
]
