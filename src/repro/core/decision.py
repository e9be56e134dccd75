"""Decision policies and detection outcomes.

Both detectors reduce their evidence to a scalar score and compare it
against a threshold derived from the golden reference.  Keeping the
policy separate from the detectors makes the threshold choice explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of one accept/reject decision.

    Attributes
    ----------
    label:
        The device under test's label.
    score:
        The scalar evidence (delay difference in ps, EM metric...).
    threshold:
        The decision threshold that was applied.
    is_infected:
        The verdict: True = reject (trojan suspected).
    details:
        Free-form human-readable context for reports.
    """

    label: str
    score: float
    threshold: float
    is_infected: bool
    details: str = ""

    def margin(self) -> float:
        """Signed distance of the score above the threshold."""
        return self.score - self.threshold


@dataclass(frozen=True)
class ThresholdPolicy:
    """Threshold = reference mean + ``num_sigmas`` x reference spread.

    This is the classic golden-model policy: the threshold is calibrated
    only from genuine devices, so the false-positive rate is controlled
    by ``num_sigmas`` regardless of what trojans look like.
    """

    num_sigmas: float = 3.0
    minimum_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.num_sigmas < 0:
            raise ValueError("num_sigmas must be non-negative")
        if self.minimum_threshold < 0:
            raise ValueError("minimum_threshold must be non-negative")

    def threshold(self, reference_scores: Sequence[float]) -> float:
        """Compute the decision threshold from genuine reference scores."""
        scores = np.asarray(reference_scores, dtype=float)
        if scores.size == 0:
            raise ValueError("at least one reference score is required")
        spread = scores.std(ddof=1) if scores.size > 1 else 0.0
        return float(max(self.minimum_threshold,
                         scores.mean() + self.num_sigmas * spread))

    def decide(self, label: str, score: float,
               reference_scores: Sequence[float],
               details: str = "") -> DetectionOutcome:
        """Apply the policy to one score."""
        threshold = self.threshold(reference_scores)
        return DetectionOutcome(
            label=label,
            score=float(score),
            threshold=threshold,
            is_infected=bool(score > threshold),
            details=details,
        )
