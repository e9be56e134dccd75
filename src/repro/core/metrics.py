"""Detection metrics: the local-maxima-sum score and the Eq. (5) error model.

Two pieces of the paper's contribution live here:

* :class:`LocalMaximaSumMetric` — the EM detection score of Sec. V-B:
  take the absolute difference between a measured trace and the mean
  golden trace, find its local maxima (the informative peaks) and sum
  them;
* :func:`false_negative_rate` — Eq. (5): with genuine and infected
  metric populations modelled as equal-variance Gaussians separated by
  ``mu``, the false-negative rate (equal to the false-positive rate at
  the symmetric threshold) is ``1/2 - 1/2 erf(mu / (2 sigma sqrt(2)))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.batch import (
    abs_difference_matrix,
    false_negative_rates,
    sum_of_local_maxima_batch,
)
from ..analysis.traces import TraceLike, as_samples


def false_negative_rate(mu: float, sigma: float) -> float:
    """Eq. (5): FN (= FP) rate of the symmetric two-Gaussian decision.

    One-entry view of
    :func:`~repro.analysis.batch.false_negative_rates`, the one
    implementation of Eq. (5) and of its ``sigma == 0`` limit.

    Parameters
    ----------
    mu:
        Separation between the infected and genuine metric means.
    sigma:
        Common standard deviation of the two populations.
    """
    return float(false_negative_rates(mu, sigma))


def detection_probability(mu: float, sigma: float) -> float:
    """Probability of detecting the trojan (1 - false negative rate)."""
    return 1.0 - false_negative_rate(mu, sigma)


def required_separation(target_fn_rate: float, sigma: float) -> float:
    """Separation ``mu`` needed to reach a target false-negative rate.

    Inverse of :func:`false_negative_rate`; used to answer "how big must
    a trojan be for 95 % detection on this process?".
    """
    if not 0.0 < target_fn_rate < 0.5:
        raise ValueError("target_fn_rate must be in (0, 0.5)")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return 0.0
    # erf(x) = 1 - 2 * target  =>  x = erfinv(1 - 2 * target)
    from scipy.special import erfinv

    return float(2.0 * sigma * math.sqrt(2.0) * erfinv(1.0 - 2.0 * target_fn_rate))


@dataclass(frozen=True)
class LocalMaximaSumMetric:
    """The paper's EM detection score (Sec. V-B).

    Parameters
    ----------
    min_peak_distance:
        Minimum sample spacing between counted peaks; the default of one
        clock period's worth of samples would count one peak per round,
        the paper's description ("the difference ... mainly located at
        the trace peaks") is reproduced with a small spacing that keeps
        every ringing peak.
    min_peak_height:
        Optional absolute floor below which peaks are ignored.
    """

    min_peak_distance: int = 5
    min_peak_height: Optional[float] = None

    def scores_matrix(self, matrix: np.ndarray, reference: TraceLike
                      ) -> np.ndarray:
        """Scores of a pre-stacked ``(traces x samples)`` matrix.

        One batched abs-difference and one batched local-maxima pass
        over the whole population (:mod:`repro.analysis.batch`);
        bit-identical, row by row, to the per-trace serial reference
        ``score_trace`` in ``tests/oracles/scoring.py``.
        """
        return sum_of_local_maxima_batch(
            abs_difference_matrix(matrix, as_samples(reference)),
            min_height=self.min_peak_height,
            min_distance=self.min_peak_distance,
        )


@dataclass(frozen=True)
class L1TraceMetric:
    """Baseline metric: mean absolute difference over the whole trace.

    Used by the ablation benchmark to show why the paper sums local
    maxima instead of integrating the difference everywhere (the flat
    regions between peaks only add noise).
    """

    def scores_matrix(self, matrix: np.ndarray, reference: TraceLike
                      ) -> np.ndarray:
        """Row-wise mean abs difference of a ``(traces x samples)`` matrix."""
        return abs_difference_matrix(matrix, as_samples(reference)).mean(axis=1)


@dataclass(frozen=True)
class MaxDifferenceMetric:
    """Baseline metric: maximum absolute difference (single worst sample)."""

    def scores_matrix(self, matrix: np.ndarray, reference: TraceLike
                      ) -> np.ndarray:
        """Row-wise max abs difference of a ``(traces x samples)`` matrix."""
        return abs_difference_matrix(matrix, as_samples(reference)).max(axis=1)
