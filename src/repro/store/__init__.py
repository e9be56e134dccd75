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

A store is a directory, and :class:`ArtifactStore` is its one
implementation; :func:`build_store` turns a path or a live store into
one.  Tensor artifacts share one group codec
(:func:`pack_groups`), and every client goes through one
:func:`read_through`.  ``fsck`` and ``gc`` share one maintenance
sweep, and processes share a store through one ``fcntl.flock``
protocol (the store is POSIX-only): each put holds the shared store
lock, then its key's lock, across its object and manifest entry;
maintenance holds the exclusive store lock; reads take no lock.  Hosts share results by copying
the directory's ``objects/`` and then its ``manifest/``.

The store imports nothing that computes.  NumPy loads only where an
array payload is encoded or decoded (and in :func:`pack_groups`), and
content keys go through :func:`repro.io.results.to_jsonable`, which
looks for NumPy values only once NumPy is loaded; so a resumed campaign
reads its completion records without NumPy.  Every name below resolves
on first access.
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "ARTIFACT_SCHEMA_VERSION": ".artifacts",
    "ArtifactStore": ".artifact_store",
    "DEFAULT_GOLDEN_SIGNATURE": ".artifacts",
    "DEFAULT_LOCK_TIMEOUT_S": ".locks",
    "FileLock": ".locks",
    "FsckReport": ".artifact_store",
    "LockTimeout": ".locks",
    "ManifestEntry": ".artifact_store",
    "RetryPolicy": ".retry",
    "STORE_FORMAT_VERSION": ".artifact_store",
    "StoreIntegrityError": ".artifact_store",
    "backoff_delay_s": ".retry",
    "build_store": ".artifact_store",
    "canonical_json": ".keys",
    "golden_signature": ".artifacts",
    "is_transient_os_error": ".retry",
    "pack_groups": ".artifacts",
    "read_through": ".artifacts",
    "spec_content_fragment": ".artifacts",
    "stable_key": ".keys",
    "unpack_groups": ".artifacts",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
