"""Campaign artifact schemas: content keys, the group codec, the read-through.

The campaign engine caches five kinds of artifact, all of which are
pure functions of a spec fragment and therefore content-addressable
(:mod:`repro.store.keys`; the engine's ``_store_key`` keys all five):

* **population traces** — the per-(design, die) averaged EM traces of
  one acquisition point (die count x acquisition variant x stimulus
  set), the input every EM metric re-scores;
* **delay difference tensors** — the Eq. (4) per-(pair, bit)
  differences of one clock-glitch campaign over the die population;
* **fault sweeps** — the faulted-ciphertext tensors of one glitch-grid
  sweep over the die population, with the resolved grid axes;
* **infected-design summaries** — the area bookkeeping a report row
  needs (a warm run must not pay for synthesis + trojan insertion just
  to print ``% of AES``);
* **cell results** — one executed grid cell's summary rows; their
  presence in the manifest is the per-cell completion record that
  interrupted or sharded runs resume from.

Summaries and rows are JSON; the three tensor artifacts are npz laid
out by one group codec (:func:`pack_groups` / :func:`unpack_groups`),
which each cached value type maps its arrays onto in its
``to_arrays`` / ``from_arrays``.  :func:`read_through` is the one
load-or-compute-and-put path of every store client.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .keys import stable_key

#: Bump when the meaning of a stored artifact changes; old keys then
#: simply miss instead of being misread.
ARTIFACT_SCHEMA_VERSION = 1

#: Key-payload marker of the built-in golden design (built
#: deterministically from the device, so the device identifies it).
DEFAULT_GOLDEN_SIGNATURE = "built-in"


def golden_signature(golden: Any) -> Dict[str, Any]:
    """A cheap content summary of a *custom* golden design.

    Engines built on the default golden use
    :data:`DEFAULT_GOLDEN_SIGNATURE` instead (the default build is a
    pure function of the device, and computing a signature would force
    the build a warm run is trying to skip).
    """
    return {
        "device": golden.device,
        "modelled_slices": golden.modelled_slice_count(),
        "net_delays": stable_key(golden.net_delays_ps),
    }


#: Spec fields that change how a campaign *executes* but not what its
#: rows contain; they are excluded from content keys.  The supervisor's
#: fault-tolerance knobs (retries, timeout, backoff) belong here: a
#: campaign rerun with a longer timeout must hit the artifacts the
#: impatient run already computed.
EXECUTION_ONLY_SPEC_FIELDS = ("name", "workers", "save_traces",
                              "max_retries", "cell_timeout_s",
                              "retry_backoff_s")


def spec_content_fragment(spec_payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The result-determining subset of a campaign-spec dictionary."""
    return {field: value for field, value in spec_payload.items()
            if field not in EXECUTION_ONLY_SPEC_FIELDS}


# -- array payloads and the read-through --------------------------------------


def pack_groups(shared: Mapping[str, np.ndarray],
                golden: Mapping[str, np.ndarray],
                infected: Mapping[str, Mapping[str, np.ndarray]]
                ) -> Dict[str, np.ndarray]:
    """Lay a (golden, per-trojan infected) payload out as npz members.

    The member order is part of the npz bytes: ``groups`` (``golden``
    then the trojan names), the ``shared`` members, ``golden::<field>``,
    then ``trojan::<name>::<field>`` per trojan.
    """
    arrays = {"groups": np.array(["golden"] + list(infected)), **shared}
    groups = [("golden", golden)] + [(f"trojan::{name}", fields)
                                     for name, fields in infected.items()]
    for prefix, fields in groups:
        arrays.update((f"{prefix}::{field}", value)
                      for field, value in fields.items())
    return arrays


def unpack_groups(arrays: Mapping[str, np.ndarray]
                  ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray],
                             Dict[str, Dict[str, np.ndarray]]]:
    """Inverse of :func:`pack_groups`: ``(shared, golden, infected)``,
    the arrays as stored (no copies), trojans in ``groups`` order."""

    def members(prefix: str) -> Dict[str, np.ndarray]:
        return {member[len(prefix):]: value
                for member, value in arrays.items()
                if member.startswith(prefix)}

    shared = {member: value for member, value in arrays.items()
              if member != "groups"
              and not member.startswith(("golden::", "trojan::"))}
    infected = {str(name): members(f"trojan::{name}::")
                for name in arrays["groups"][1:]}
    return shared, members("golden::"), infected


#: Artifact kinds stored as JSON documents; every other kind is arrays.
_JSON_ARTIFACT_KINDS = frozenset({"infected_summary"})


def read_through(store: Optional[Any], kind: str, key: Optional[str],
                 compute: Callable[[], Any],
                 pack: Callable[[Any], Any], unpack: Callable[[Any], Any],
                 meta: Callable[[Any], Dict[str, Any]]) -> Any:
    """Load and unpack ``key``, or compute, pack and put it.

    The one path by which a store client reuses an artifact.  ``kind``
    picks the payload form (JSON for the infected-design summaries, npz
    arrays otherwise) and ``meta(value)`` gives the manifest metadata of
    a stored value.  Without a store (``store is None``) this is just
    ``compute()``.  The store's ``load_*`` folds a corrupt (quarantined)
    object into a miss, so a torn write costs a recompute, not a crash.
    """
    if store is None:
        return compute()
    is_json = kind in _JSON_ARTIFACT_KINDS
    stored = (store.load_json if is_json else store.load_arrays)(key)
    if stored is not None:
        return unpack(stored)
    value = compute()
    put = store.put_json if is_json else store.put_arrays
    put(key, pack(value), kind=kind, meta=meta(value))
    return value
