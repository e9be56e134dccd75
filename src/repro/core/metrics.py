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
from typing import Optional, Sequence

import numpy as np

from ..analysis.batch import abs_difference_matrix, sum_of_local_maxima_batch
from ..analysis.local_maxima import sum_of_local_maxima
from ..analysis.traces import TraceLike, abs_difference, as_samples, stack_traces


def false_negative_rate(mu: float, sigma: float) -> float:
    """Eq. (5): FN (= FP) rate of the symmetric two-Gaussian decision.

    Parameters
    ----------
    mu:
        Separation between the infected and genuine metric means.
    sigma:
        Common standard deviation of the two populations.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return 0.0 if mu > 0 else 0.5
    return 0.5 - 0.5 * math.erf(mu / (2.0 * sigma * math.sqrt(2.0)))


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

    def difference_trace(self, trace: TraceLike, reference: TraceLike
                         ) -> np.ndarray:
        """The absolute difference |trace - reference| the metric is built on."""
        return abs_difference(trace, reference)

    def score(self, trace: TraceLike, reference: TraceLike) -> float:
        """Sum of the local maxima of the absolute difference trace.

        Serial reference of :meth:`scores_matrix`; the batched path must
        reproduce this per-trace score bit-for-bit.
        """
        return sum_of_local_maxima(
            self.difference_trace(trace, reference),
            min_height=self.min_peak_height,
            min_distance=self.min_peak_distance,
        )

    def scores_matrix(self, matrix: np.ndarray, reference: TraceLike
                      ) -> np.ndarray:
        """Scores of a pre-stacked ``(traces x samples)`` matrix.

        One batched abs-difference and one batched local-maxima pass
        over the whole population (:mod:`repro.analysis.batch`);
        bit-identical to calling :meth:`score` row by row.
        """
        return sum_of_local_maxima_batch(
            abs_difference_matrix(matrix, as_samples(reference)),
            min_height=self.min_peak_height,
            min_distance=self.min_peak_distance,
        )

    def scores(self, traces: Sequence[TraceLike], reference: TraceLike
               ) -> np.ndarray:
        """Scores of a whole population of traces against one reference.

        Stacks once (a pre-stacked ndarray passes through) and scores
        through :meth:`scores_matrix`; equals a :meth:`score` loop
        bit-for-bit.
        """
        return self.scores_matrix(stack_traces(traces), reference)


@dataclass(frozen=True)
class L1TraceMetric:
    """Baseline metric: mean absolute difference over the whole trace.

    Used by the ablation benchmark to show why the paper sums local
    maxima instead of integrating the difference everywhere (the flat
    regions between peaks only add noise).
    """

    def score(self, trace: TraceLike, reference: TraceLike) -> float:
        """Serial reference of :meth:`scores_matrix`."""
        return float(np.mean(abs_difference(trace, reference)))

    def scores_matrix(self, matrix: np.ndarray, reference: TraceLike
                      ) -> np.ndarray:
        """Row-wise mean abs difference; bit-identical to :meth:`score`."""
        return abs_difference_matrix(matrix, as_samples(reference)).mean(axis=1)

    def scores(self, traces: Sequence[TraceLike], reference: TraceLike
               ) -> np.ndarray:
        return self.scores_matrix(stack_traces(traces), reference)


@dataclass(frozen=True)
class MaxDifferenceMetric:
    """Baseline metric: maximum absolute difference (single worst sample)."""

    def score(self, trace: TraceLike, reference: TraceLike) -> float:
        """Serial reference of :meth:`scores_matrix`."""
        return float(np.max(abs_difference(trace, reference)))

    def scores_matrix(self, matrix: np.ndarray, reference: TraceLike
                      ) -> np.ndarray:
        """Row-wise max abs difference; bit-identical to :meth:`score`."""
        return abs_difference_matrix(matrix, as_samples(reference)).max(axis=1)

    def scores(self, traces: Sequence[TraceLike], reference: TraceLike
               ) -> np.ndarray:
        return self.scores_matrix(stack_traces(traces), reference)
