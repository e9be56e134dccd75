"""Local-maxima extraction.

The paper's inter-die detection metric is built on the *local maxima* of
the absolute difference between a measured EM trace and the mean golden
trace: the informative samples are the peaks of the round activity, so
summing the peaks concentrates the trojan's contribution while ignoring
the flat, noise-dominated regions between rounds (Sec. V-B).  The peak
finder itself is :func:`repro.analysis.batch.find_local_maxima_batch`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .batch import sum_of_local_maxima_batch


def sum_of_local_maxima(signal: Sequence[float],
                        min_height: Optional[float] = None,
                        min_distance: int = 1) -> float:
    """Sum of the local-maximum values of ``signal`` (the paper's metric core).

    A one-row view of :func:`~repro.analysis.batch.sum_of_local_maxima_batch`.
    Nothing in the package calls it; it stays because the end-to-end
    benchmark's tracer (``e2e_bench/tracer.py``) probes it by name.
    """
    row = np.asarray(signal, dtype=float)
    if row.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    return float(sum_of_local_maxima_batch(
        row[None, :], min_height=min_height, min_distance=min_distance)[0])
