"""Campaign artifact schemas: content keys and npz payload packing.

The campaign engine caches three expensive intermediates, all of which
are pure functions of a spec fragment and therefore content-addressable
(:mod:`repro.store.keys`):

* **population traces** — the per-(design, die) averaged EM traces of
  one acquisition point (die count x acquisition variant x stimulus
  set), the input every EM metric re-scores;
* **delay difference matrices** — the Eq. (4) per-(pair, bit) matrices
  of one clock-glitch campaign over the die population;
* **infected-design summaries** — the area bookkeeping a report row
  needs (a warm run must not pay for synthesis + trojan insertion just
  to print ``% of AES``);
* **cell results** — one executed grid cell's summary rows; their
  presence in the manifest is the per-cell completion record that
  interrupted or sharded runs resume from.

Payloads are npz (trace/matrix tensors) or JSON (summaries, rows); both
are self-describing so :func:`unpack_population_traces` and
:func:`unpack_delay_differences` need nothing but the archive.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..io.tracefile import traces_from_arrays, traces_to_arrays
from ..measurement.em_simulator import EMTrace
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


# -- content keys -------------------------------------------------------------


def population_traces_key(*, device: Any, golden: Any, em_config: Any,
                          seed: int, num_dies: int,
                          trojans: Sequence[str], key: bytes,
                          plaintexts: Sequence[bytes]) -> str:
    """Key of one acquisition point's (golden + infected) trace set."""
    return stable_key({
        "kind": "population_traces",
        "schema": ARTIFACT_SCHEMA_VERSION,
        "device": device,
        "golden": golden,
        "em": em_config,
        "seed": int(seed),
        "num_dies": int(num_dies),
        "trojans": list(trojans),
        "key": key,
        "plaintexts": list(plaintexts),
    })


def delay_differences_key(*, device: Any, golden: Any, delay_config: Any,
                          seed: int, num_dies: int,
                          trojans: Sequence[str], num_pk_pairs: int) -> str:
    """Key of one delay campaign's Eq. (4) difference matrices."""
    return stable_key({
        "kind": "delay_differences",
        "schema": ARTIFACT_SCHEMA_VERSION,
        "device": device,
        "golden": golden,
        "delay": delay_config,
        "seed": int(seed),
        "num_dies": int(num_dies),
        "trojans": list(trojans),
        "num_pk_pairs": int(num_pk_pairs),
    })


def fault_sweep_key(*, device: Any, golden: Any, delay_config: Any,
                    seed: int, num_dies: int, trojans: Sequence[str],
                    key: bytes, plaintexts: Sequence[bytes],
                    offsets_ps: Sequence[float], widths_ps: Sequence[float],
                    periods_ps: Sequence[float]) -> str:
    """Key of one glitch-grid fault-injection sweep's ciphertext tensors.

    The grid axes enter the key as the *spec-level* values (empty =
    auto-calibrated on the golden die), so a warm rerun of an
    auto-calibrated sweep hits without paying for the golden build the
    calibration would need.
    """
    return stable_key({
        "kind": "fault_sweep",
        "schema": ARTIFACT_SCHEMA_VERSION,
        "device": device,
        "golden": golden,
        "delay": delay_config,
        "seed": int(seed),
        "num_dies": int(num_dies),
        "trojans": list(trojans),
        "key": key,
        "plaintexts": list(plaintexts),
        "offsets_ps": [float(v) for v in offsets_ps],
        "widths_ps": [float(v) for v in widths_ps],
        "periods_ps": [float(v) for v in periods_ps],
    })


def infected_summary_key(*, device: Any, golden: Any, trojan: str) -> str:
    """Key of one trojan's infected-design area summary."""
    return stable_key({
        "kind": "infected_summary",
        "schema": ARTIFACT_SCHEMA_VERSION,
        "device": device,
        "golden": golden,
        "trojan": str(trojan),
    })


def cell_result_key(*, device: Any, golden: Any,
                    spec_payload: Mapping[str, Any], cell_index: int) -> str:
    """Key of one executed grid cell's result rows.

    ``spec_payload`` must already be stripped of execution-only fields
    (name, workers, trace archiving) — see
    :func:`spec_content_fragment` — so re-running the same physics under
    a different campaign name or worker count resumes instead of
    recomputing.
    """
    return stable_key({
        "kind": "campaign_cell",
        "schema": ARTIFACT_SCHEMA_VERSION,
        "device": device,
        "golden": golden,
        "spec": dict(spec_payload),
        "cell_index": int(cell_index),
    })


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


# -- trace payloads -----------------------------------------------------------


def _pack_trace_group(prefix: str, traces: Sequence[EMTrace],
                      arrays: Dict[str, np.ndarray]) -> None:
    """Add one trace group to ``arrays`` under ``<prefix>::<field>`` keys.

    The field layout is :func:`repro.io.tracefile.traces_to_arrays` —
    the one EMTrace codec, shared with the trace archives.
    """
    for name, value in traces_to_arrays(traces).items():
        arrays[f"{prefix}::{name}"] = value


def _unpack_trace_group(prefix: str,
                        arrays: Mapping[str, np.ndarray]) -> List[EMTrace]:
    marker = f"{prefix}::"
    return traces_from_arrays({name[len(marker):]: value
                               for name, value in arrays.items()
                               if name.startswith(marker)})


def pack_population_traces(golden_traces: Sequence[EMTrace],
                           infected_traces: Mapping[str, Sequence[EMTrace]]
                           ) -> Dict[str, np.ndarray]:
    """Flatten a (golden, per-trojan infected) trace set into npz arrays."""
    arrays: Dict[str, np.ndarray] = {
        "groups": np.array(["golden"] + list(infected_traces)),
    }
    _pack_trace_group("golden", golden_traces, arrays)
    for name, traces in infected_traces.items():
        _pack_trace_group(f"trojan::{name}", traces, arrays)
    return arrays


def unpack_population_traces(arrays: Mapping[str, np.ndarray]
                             ) -> Tuple[List[EMTrace],
                                        Dict[str, List[EMTrace]]]:
    """Inverse of :func:`pack_population_traces`."""
    groups = [str(name) for name in arrays["groups"]]
    golden_traces = _unpack_trace_group("golden", arrays)
    infected_traces = {name: _unpack_trace_group(f"trojan::{name}", arrays)
                       for name in groups if name != "golden"}
    return golden_traces, infected_traces


# -- delay payloads -----------------------------------------------------------


def pack_delay_differences(golden_differences: Sequence[np.ndarray],
                           infected_differences: Mapping[str,
                                                         Sequence[np.ndarray]]
                           ) -> Dict[str, np.ndarray]:
    """Flatten the per-die Eq. (4) difference matrices into npz arrays."""
    arrays: Dict[str, np.ndarray] = {
        "groups": np.array(["golden"] + list(infected_differences)),
        "golden::diff": np.stack([np.asarray(matrix)
                                  for matrix in golden_differences]),
    }
    for name, matrices in infected_differences.items():
        arrays[f"trojan::{name}::diff"] = np.stack(
            [np.asarray(matrix) for matrix in matrices])
    return arrays


def unpack_delay_differences(arrays: Mapping[str, np.ndarray]
                             ) -> Tuple[List[np.ndarray],
                                        Dict[str, List[np.ndarray]]]:
    """Inverse of :func:`pack_delay_differences`."""
    groups = [str(name) for name in arrays["groups"]]
    golden_differences = [matrix.copy() for matrix in arrays["golden::diff"]]
    infected_differences = {
        name: [matrix.copy() for matrix in arrays[f"trojan::{name}::diff"]]
        for name in groups if name != "golden"
    }
    return golden_differences, infected_differences


# -- fault-sweep payloads -----------------------------------------------------


def pack_fault_sweep(axes: Mapping[str, Sequence[float]],
                     plaintexts: np.ndarray,
                     correct: np.ndarray,
                     golden_faulted: np.ndarray,
                     infected_faulted: Mapping[str, np.ndarray]
                     ) -> Dict[str, np.ndarray]:
    """Flatten one glitch-grid sweep into npz arrays.

    ``axes`` holds the *resolved* grid axes (offsets/widths/periods in
    ps — after auto-calibration, not the possibly-empty spec values), so
    a store hit reproduces the exact grid without re-calibrating;
    ``plaintexts``/``correct`` are the ``(N, 16)`` stimulus and
    fault-free ciphertexts, and the faulted tensors are ``(D, G, N,
    16)`` per population.
    """
    arrays: Dict[str, np.ndarray] = {
        "groups": np.array(["golden"] + list(infected_faulted)),
        "axes::offsets_ps": np.asarray(axes["offsets_ps"], dtype=float),
        "axes::widths_ps": np.asarray(axes["widths_ps"], dtype=float),
        "axes::periods_ps": np.asarray(axes["periods_ps"], dtype=float),
        "plaintexts": np.asarray(plaintexts, dtype=np.uint8),
        "correct": np.asarray(correct, dtype=np.uint8),
        "golden::faulted": np.asarray(golden_faulted, dtype=np.uint8),
    }
    for name, tensor in infected_faulted.items():
        arrays[f"trojan::{name}::faulted"] = np.asarray(tensor,
                                                        dtype=np.uint8)
    return arrays


def unpack_fault_sweep(arrays: Mapping[str, np.ndarray]
                       ) -> Tuple[Dict[str, np.ndarray], np.ndarray,
                                  np.ndarray, np.ndarray,
                                  Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_fault_sweep`.

    Returns ``(axes, plaintexts, correct, golden_faulted,
    infected_faulted)``.
    """
    groups = [str(name) for name in arrays["groups"]]
    axes = {
        "offsets_ps": arrays["axes::offsets_ps"].copy(),
        "widths_ps": arrays["axes::widths_ps"].copy(),
        "periods_ps": arrays["axes::periods_ps"].copy(),
    }
    infected_faulted = {
        name: arrays[f"trojan::{name}::faulted"].copy()
        for name in groups if name != "golden"
    }
    return (axes, arrays["plaintexts"].copy(), arrays["correct"].copy(),
            arrays["golden::faulted"].copy(), infected_faulted)
