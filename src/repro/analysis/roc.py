"""Receiver-operating-characteristic utilities.

The paper reports a single operating point (false negative = false
positive, Eq. 5); the ROC utilities generalise that to the full
trade-off curve, which the ablation benchmarks use to compare the
local-maxima-sum metric against simpler trace distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass
class ROCCurve:
    """ROC curve of a detector score (higher score = more suspicious)."""

    thresholds: np.ndarray
    false_positive_rates: np.ndarray
    true_positive_rates: np.ndarray

    def auc(self) -> float:
        """Area under the curve (trapezoidal)."""
        # Sort by FPR, breaking ties by TPR, so vertical segments of the
        # step curve are traversed bottom-up and integrate correctly.
        order = np.lexsort((self.true_positive_rates, self.false_positive_rates))
        fpr = self.false_positive_rates[order]
        tpr = self.true_positive_rates[order]
        integrate = getattr(np, "trapezoid", None) or np.trapz
        return float(integrate(tpr, fpr))

    def equal_error_rate(self) -> float:
        """Rate at which the false-positive and false-negative rates cross."""
        fnr = 1.0 - self.true_positive_rates
        gap = np.abs(self.false_positive_rates - fnr)
        index = int(np.argmin(gap))
        return float((self.false_positive_rates[index] + fnr[index]) / 2.0)

    def operating_point(self, max_false_positive_rate: float
                        ) -> Tuple[float, float]:
        """Best (threshold, TPR) with FPR below ``max_false_positive_rate``.

        Raises ``ValueError`` when no threshold of the curve meets the
        FPR budget (instead of silently returning the first threshold
        with a 0.0 TPR, which read like a valid — terrible — detector):
        callers that report operating points must be able to tell
        "infeasible budget" from "feasible but useless".
        """
        eligible = np.flatnonzero(
            self.false_positive_rates <= max_false_positive_rate
        )
        if eligible.size == 0:
            raise ValueError(
                f"no threshold achieves a false-positive rate <= "
                f"{max_false_positive_rate} (curve minimum: "
                f"{float(self.false_positive_rates.min())})"
            )
        best = eligible[np.argmax(self.true_positive_rates[eligible])]
        return float(self.thresholds[best]), float(self.true_positive_rates[best])


def _roc_thresholds(genuine: np.ndarray, infected: np.ndarray) -> np.ndarray:
    candidates = np.unique(np.concatenate([genuine, infected]))
    return np.concatenate((
        [candidates[0] - 1.0], candidates, [candidates[-1] + 1.0]
    ))


def roc_curve(genuine_scores: Sequence[float],
              infected_scores: Sequence[float]) -> ROCCurve:
    """Build the ROC curve from genuine (negative) and infected (positive) scores.

    Each rate is an exceedance fraction, computed for *all* thresholds
    at once from one sort per population:
    ``(scores > t).mean() == (n - searchsorted(sorted_scores, t,
    'right')) / n`` — O((N + T) log N) instead of the per-threshold
    O(N·T) scan, and bit-identical to it (the mean of a boolean mask is
    an exact small-integer ratio in both cases).
    """
    genuine = np.asarray(genuine_scores, dtype=float)
    infected = np.asarray(infected_scores, dtype=float)
    if genuine.size == 0 or infected.size == 0:
        raise ValueError("both score populations must be non-empty")
    thresholds = _roc_thresholds(genuine, infected)

    def exceedance(scores: np.ndarray) -> np.ndarray:
        ranks = np.searchsorted(np.sort(scores), thresholds, side="right")
        return (scores.size - ranks) / scores.size

    return ROCCurve(
        thresholds=thresholds,
        false_positive_rates=exceedance(genuine),
        true_positive_rates=exceedance(infected),
    )
