"""Trace-set manipulation helpers.

Thin numpy-based utilities shared by the EM detectors and the
experiment drivers: stacking acquisitions into a matrix and absolute
difference traces.  They operate on plain arrays so they are equally usable on simulated
traces (:class:`repro.measurement.em_simulator.EMTrace`) and on traces
loaded from disk (:mod:`repro.io.tracefile`).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from ..measurement.em_simulator import EMTrace

#: Anything accepted as a trace: an EMTrace or a raw sample vector.
TraceLike = Union[EMTrace, Sequence[float], np.ndarray]


def as_samples(trace: TraceLike) -> np.ndarray:
    """Extract the sample vector from a trace-like object."""
    if isinstance(trace, EMTrace):
        return np.asarray(trace.samples, dtype=float)
    return np.asarray(trace, dtype=float)


def stack_traces(traces: Iterable[TraceLike]) -> np.ndarray:
    """Stack traces into a ``(num_traces, num_samples)`` matrix.

    A pre-stacked two-dimensional float ndarray passes straight through
    (no copy, no re-validation): detectors that score the same
    population repeatedly stack once and hand the matrix around instead
    of re-converting the trace list on every call.
    """
    if isinstance(traces, np.ndarray) and traces.ndim == 2:
        if traces.shape[0] == 0:
            raise ValueError("at least one trace is required")
        return np.asarray(traces, dtype=float)
    rows = [as_samples(trace) for trace in traces]
    if not rows:
        raise ValueError("at least one trace is required")
    length = rows[0].size
    for index, row in enumerate(rows):
        if row.ndim != 1:
            raise ValueError(
                f"trace {index} is not a one-dimensional sample vector"
            )
        if row.size != length:
            raise ValueError(
                f"trace {index} has {row.size} samples, expected {length}"
            )
    return np.vstack(rows)


def abs_difference(trace: TraceLike, reference: TraceLike) -> np.ndarray:
    """Absolute sample-wise difference |trace - reference|."""
    a = as_samples(trace)
    b = as_samples(reference)
    if a.size != b.size:
        raise ValueError(
            f"trace has {a.size} samples but reference has {b.size}"
        )
    return np.abs(a - b)
