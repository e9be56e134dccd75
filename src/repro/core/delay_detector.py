"""Delay-based hardware-trojan detection (Sec. III).

The detector compares a device under test's per-bit path delays (steps
to fault, measured by the clock-glitch platform) against the golden
fingerprint.  The per-(pair, bit) observable is the Eq. (4) delay
difference; the device-level score is its maximum over all measured
bits and pairs — a trojan only needs to disturb *one* net to be caught,
and the paper stresses that every wire acts as a trojan sensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..measurement.delay_meter import DelayMeasurement
from .decision import DetectionOutcome, ThresholdPolicy
from .fingerprint import DelayFingerprint


@dataclass
class DelayComparisonResult:
    """Per-bit comparison of one DUT against the golden fingerprint.

    ``difference_ps`` has shape ``(num_pairs, 128)``: the Eq. (4) delay
    difference for every (pair, bit), in picoseconds.  Entries where
    neither campaign observed the bit faulting stay at 0.
    """

    label: str
    difference_ps: np.ndarray
    outcome: DetectionOutcome
    per_pair_max_ps: np.ndarray = field(default_factory=lambda: np.array([]))

    @property
    def max_difference_ps(self) -> float:
        """The device-level score: worst per-bit delay shift observed."""
        return float(self.difference_ps.max()) if self.difference_ps.size else 0.0

    def suspicious_bits(self, threshold_ps: Optional[float] = None
                        ) -> List[int]:
        """Paper-bit indices whose shift exceeds the decision threshold."""
        threshold = self.outcome.threshold if threshold_ps is None else threshold_ps
        mask = (self.difference_ps > threshold).any(axis=0)
        return [int(bit) for bit in np.flatnonzero(mask)]

    def pair_profile(self, pair_index: int) -> np.ndarray:
        """Per-bit delay differences of one (P, K) pair (a Fig. 3 curve)."""
        if not 0 <= pair_index < self.difference_ps.shape[0]:
            raise ValueError(
                f"pair_index must be in range({self.difference_ps.shape[0]})"
            )
        return self.difference_ps[pair_index]


class DelayDetector:
    """Golden-model delay comparison.

    Parameters
    ----------
    fingerprint:
        The golden fingerprint (mean steps-to-fault per pair and bit).
    policy:
        Decision policy applied to the device-level score.  The
        reference scores it calibrates on are the clean-versus-clean
        differences implied by the fingerprint's repetition noise, or
        the scores of explicitly provided clean campaigns
        (:meth:`calibrate_with_clean`).
    """

    def __init__(self, fingerprint: DelayFingerprint,
                 policy: Optional[ThresholdPolicy] = None):
        self.fingerprint = fingerprint
        self.policy = policy or ThresholdPolicy(num_sigmas=4.0)
        self._clean_scores: List[float] = []

    # -- calibration ------------------------------------------------------------

    def expected_clean_score_ps(self) -> float:
        """Expected clean-device score from the fingerprint's own noise.

        The score is a maximum over many (pair, bit) entries, so the
        noise floor is scaled by a small factor accounting for the
        extreme-value effect; this keeps the detector usable when no
        second clean device is available for calibration.
        """
        noise = self.fingerprint.noise_floor_ps()
        num_cells = self.fingerprint.mean_steps.size
        extreme_factor = np.sqrt(2.0 * np.log(max(2, num_cells)))
        # The DUT is a single campaign with the same repetition count, so
        # both sides contribute noise.
        return float(noise * np.sqrt(2.0) * extreme_factor)

    def calibrate_with_clean(self, clean_measurements: Sequence[DelayMeasurement]
                             ) -> List[float]:
        """Record clean-device scores to calibrate the decision threshold."""
        scores = []
        for measurement in clean_measurements:
            scores.append(self._device_score(measurement))
        self._clean_scores.extend(scores)
        return scores

    def reference_scores(self) -> List[float]:
        """Scores the threshold policy calibrates on.

        The synthetic expected-clean scores derived from the fingerprint
        noise are always included so the reference population keeps a
        non-zero spread even when only a single clean campaign was
        available for calibration (a single point would otherwise pin the
        threshold exactly on that campaign's score).
        """
        expected = self.expected_clean_score_ps()
        scores = [expected * 0.8, expected * 1.2]
        scores.extend(self._clean_scores)
        return scores

    # -- comparison ----------------------------------------------------------------

    def difference_ps(self, measurement: DelayMeasurement) -> np.ndarray:
        """Eq. (4) per-(pair, bit) delay differences against the fingerprint.

        One-device view of :meth:`difference_ps_batch`.
        """
        return self.difference_ps_batch([measurement])[0]

    def difference_ps_batch(self, measurements: Sequence[DelayMeasurement]
                            ) -> np.ndarray:
        """Eq. (4) differences of many device campaigns in one pass.

        Stacks the per-device mean delays into a ``(devices, pairs,
        bits)`` tensor and broadcasts the golden fingerprint against it;
        plane ``[d]`` is the absolute difference of the golden and
        device ``d`` mean delays.
        """
        shape = self.fingerprint.mean_steps.shape
        if not measurements:
            return np.zeros((0,) + shape)
        for measurement in measurements:
            if measurement.mean_steps().shape != shape:
                raise ValueError(
                    "measurement and fingerprint cover different campaigns "
                    f"({measurement.mean_steps().shape} vs {shape}); use "
                    "the same pairs and glitch sweep"
                )
        stacked = np.stack([measurement.mean_delay_ps()
                            for measurement in measurements])
        return np.abs(self.fingerprint.mean_delay_ps()[None, :, :] - stacked)

    def _device_score(self, measurement: DelayMeasurement) -> float:
        return float(self.difference_ps(measurement).max())

    def compare(self, measurement: DelayMeasurement) -> DelayComparisonResult:
        """Compare one DUT campaign against the golden fingerprint."""
        differences = self.difference_ps(measurement)
        score = float(differences.max())
        outcome = self.policy.decide(
            label=measurement.label,
            score=score,
            reference_scores=self.reference_scores(),
            details=(
                f"max |Delta D| over {differences.shape[0]} pairs x "
                f"{differences.shape[1]} bits"
            ),
        )
        return DelayComparisonResult(
            label=measurement.label,
            difference_ps=differences,
            outcome=outcome,
            per_pair_max_ps=differences.max(axis=1),
        )
