"""Store payload layouts as they were written before the group codec.

The campaign artifacts used to be packed from :class:`EMTrace` lists and
per-die matrix lists.  The shipped ``to_arrays`` methods write the same
npz members straight from the cached tensors; these references pin that
the encoded bytes did not change, so stores written by older versions
keep resuming without a schema bump.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.io.tracefile import traces_to_arrays
from repro.measurement.em_simulator import EMTrace


def _pack_trace_group(prefix: str, traces: Sequence[EMTrace],
                      arrays: Dict[str, np.ndarray]) -> None:
    """Add one trace group to ``arrays`` under ``<prefix>::<field>`` keys."""
    for name, value in traces_to_arrays(traces).items():
        arrays[f"{prefix}::{name}"] = value


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


def pack_fault_sweep(axes: Mapping[str, Sequence[float]],
                     plaintexts: np.ndarray,
                     correct: np.ndarray,
                     golden_faulted: np.ndarray,
                     infected_faulted: Mapping[str, np.ndarray]
                     ) -> Dict[str, np.ndarray]:
    """Flatten one glitch-grid sweep (resolved axes) into npz arrays."""
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
