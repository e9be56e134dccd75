"""Persistence of EM traces.

Acquisition campaigns (real or simulated) are saved as ``.npz`` archives
so that detection can be re-run offline without re-acquiring: the
archive stores the sample matrix, the labels, the plaintext of each
trace and the sampling period.

Format history:

* **v1** stored samples/labels/plaintexts/sample periods — and silently
  dropped each trace's ``cycle_sample_offsets``, so a loaded trace lost
  its cycle alignment (the marks the per-round analyses index by).
* **v2** adds the offsets (stored flattened with per-trace lengths, so
  ragged offset lists round-trip too).  v1 archives still load, with
  empty offsets — exactly what v1 writers saved.

``save_traces`` / ``load_traces`` are a lossless pair for v2: samples
keep their dtype, and every :class:`EMTrace` field round-trips.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

import numpy as np

from ..measurement.em_simulator import EMTrace

PathLike = Union[str, Path]

#: Format marker stored inside every archive.
_FORMAT_VERSION = 2

#: Versions ``load_traces`` understands.
_READABLE_VERSIONS = (1, 2)


def traces_to_arrays(traces: Sequence[EMTrace]) -> Dict[str, np.ndarray]:
    """Flatten a trace set into named arrays — every field, losslessly.

    The trace-archive layout; the store's population payload
    (:meth:`~repro.core.pipeline.PopulationTraceTensors.to_arrays`)
    writes the same members straight from the matrices.
    """
    if not traces:
        raise ValueError("cannot serialise an empty trace set")
    lengths = {len(trace) for trace in traces}
    if len(lengths) != 1:
        raise ValueError("all traces must have the same number of samples")
    offsets = [np.asarray(trace.cycle_sample_offsets, dtype=np.int64)
               for trace in traces]
    return {
        "samples": np.vstack([trace.samples for trace in traces]),
        "labels": np.array([trace.label for trace in traces]),
        "plaintexts": np.array([trace.plaintext.hex() for trace in traces]),
        "sample_period_ns": np.array([trace.sample_period_ns
                                      for trace in traces]),
        "cycle_sample_offsets_flat": (np.concatenate(offsets) if offsets
                                      else np.zeros(0, dtype=np.int64)),
        "cycle_sample_offsets_lengths": np.array(
            [entry.size for entry in offsets], dtype=np.int64),
    }


def traces_from_arrays(arrays: Mapping[str, np.ndarray]) -> List[EMTrace]:
    """Inverse of :func:`traces_to_arrays`."""
    matrix = arrays["samples"]
    offsets_flat = arrays["cycle_sample_offsets_flat"]
    boundaries = np.concatenate(
        [[0], np.cumsum(arrays["cycle_sample_offsets_lengths"])]
    )
    traces: List[EMTrace] = []
    for row_index in range(matrix.shape[0]):
        begin = int(boundaries[row_index])
        end = int(boundaries[row_index + 1])
        traces.append(
            EMTrace(
                samples=matrix[row_index].copy(),
                label=str(arrays["labels"][row_index]),
                plaintext=bytes.fromhex(str(arrays["plaintexts"][row_index])),
                sample_period_ns=float(arrays["sample_period_ns"][row_index]),
                cycle_sample_offsets=[int(v)
                                      for v in offsets_flat[begin:end]],
            )
        )
    return traces


def save_traces(path: PathLike, traces: Sequence[EMTrace]) -> Path:
    """Save a set of traces to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays = traces_to_arrays(traces)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, format_version=np.array(_FORMAT_VERSION),
                        **arrays)
    return path


def load_traces(path: PathLike) -> List[EMTrace]:
    """Load a trace set previously written by :func:`save_traces`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file {path} does not exist")
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version not in _READABLE_VERSIONS:
            raise ValueError(
                f"unsupported trace file version {version} "
                f"(readable: {_READABLE_VERSIONS})"
            )
        arrays = {name: archive[name] for name in archive.files
                  if name != "format_version"}
    if version < 2:
        # v1 never stored offsets; loaded traces get empty lists,
        # matching what v1 writers threw away.
        arrays["cycle_sample_offsets_flat"] = np.zeros(0, dtype=np.int64)
        arrays["cycle_sample_offsets_lengths"] = np.zeros(
            arrays["samples"].shape[0], dtype=np.int64)
    return traces_from_arrays(arrays)
