"""Golden-model fingerprints.

Both detection methods compare a device under test against a reference
built from the golden model (GM):

* the **delay fingerprint** (Sec. III) is the per-(pair, bit) mean
  steps-to-fault of repeated measurements on the GM, together with the
  repetition noise needed to set a decision threshold;
* the **EM reference** (Sec. IV/V) is the mean golden trace — the
  ``E_8(G)`` of Fig. 6 when built from several golden dies — together
  with the per-sample spread of the golden population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..analysis.traces import TraceLike, stack_traces
from ..measurement.delay_meter import DelayMeasurement


@dataclass
class DelayFingerprint:
    """Per-(pair, bit) delay fingerprint of the golden model.

    Attributes
    ----------
    mean_steps:
        Mean steps-to-fault over repetitions, shape ``(num_pairs, 128)``.
    repetition_std_steps:
        Per-(pair, bit) standard deviation across repetitions.
    glitch_step_ps:
        Conversion factor from steps to picoseconds.
    num_repetitions:
        Number of repetitions averaged into the fingerprint.
    label:
        Name of the reference device ("GM").
    """

    mean_steps: np.ndarray
    repetition_std_steps: np.ndarray
    glitch_step_ps: float
    num_repetitions: int
    label: str = "GM"

    def __post_init__(self) -> None:
        self.mean_steps = np.asarray(self.mean_steps, dtype=float)
        self.repetition_std_steps = np.asarray(self.repetition_std_steps,
                                               dtype=float)
        if self.mean_steps.shape != self.repetition_std_steps.shape:
            raise ValueError("mean and std arrays must have the same shape")
        if self.glitch_step_ps <= 0:
            raise ValueError("glitch_step_ps must be positive")
        if self.num_repetitions <= 0:
            raise ValueError("num_repetitions must be positive")

    @property
    def num_pairs(self) -> int:
        return int(self.mean_steps.shape[0])

    @property
    def num_bits(self) -> int:
        return int(self.mean_steps.shape[1])

    def mean_delay_ps(self) -> np.ndarray:
        """Mean steps converted to picoseconds."""
        return self.mean_steps * self.glitch_step_ps

    def noise_floor_ps(self) -> float:
        """Typical measurement-noise level of the fingerprint, in ps.

        The standard error of the per-bit mean, averaged over measurable
        (pair, bit) entries; used by the default decision threshold.
        """
        std_ps = self.repetition_std_steps * self.glitch_step_ps
        measurable = std_ps[~np.isnan(std_ps)]
        if measurable.size == 0:
            return 0.0
        return float(measurable.mean() / np.sqrt(self.num_repetitions))

    @classmethod
    def from_measurement(cls, measurement: DelayMeasurement,
                         label: Optional[str] = None) -> "DelayFingerprint":
        """Build the fingerprint from one golden-model campaign."""
        return cls(
            mean_steps=measurement.mean_steps(),
            repetition_std_steps=measurement.steps_matrix().std(axis=1, ddof=0),
            glitch_step_ps=measurement.config.glitch_step_ps,
            num_repetitions=measurement.config.repetitions,
            label=label or measurement.label,
        )


@dataclass
class EMReference:
    """Mean golden EM trace and golden-population spread.

    Built from one or several golden acquisitions: on a single die this
    is simply the reference trace of Sec. IV; across dies it is the
    ``E_8(G)`` of Sec. V together with the per-sample process-variation
    spread.
    """

    mean: np.ndarray
    per_sample_std: np.ndarray
    num_traces: int
    label: str = "E(G)"

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.per_sample_std = np.asarray(self.per_sample_std, dtype=float)
        if self.mean.shape != self.per_sample_std.shape:
            raise ValueError("mean and std must have the same shape")
        if self.num_traces <= 0:
            raise ValueError("num_traces must be positive")

    @property
    def num_samples(self) -> int:
        return int(self.mean.size)

    def noise_floor(self) -> float:
        """Typical per-sample spread of the golden population."""
        return float(self.per_sample_std.mean())

    @classmethod
    def from_traces(cls, traces: Sequence[TraceLike],
                    label: str = "E(G)") -> "EMReference":
        """Build the reference from a set of golden traces.

        ``traces`` may be a trace list or a pre-stacked ``(num_traces,
        num_samples)`` ndarray, which passes through without
        re-stacking.  The whole golden population is characterised
        with two axis reductions (mean, per-sample std).
        """
        matrix = stack_traces(traces)
        return cls(
            mean=matrix.mean(axis=0),
            per_sample_std=(matrix.std(axis=0, ddof=1) if matrix.shape[0] > 1
                            else np.zeros(matrix.shape[1])),
            num_traces=matrix.shape[0],
            label=label,
        )
