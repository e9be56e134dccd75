"""Figure 4: averaged EM measurement of a single AES-128 encryption.

Fig. 4 of the paper shows one EM trace (averaged 1 000 times by the
oscilloscope) in which all ten AES rounds are clearly visible.  The
driver acquires that trace on the simulated bench and checks its
structure: number of samples (about 3 000 at 5 GS/s and 24 MHz), the
peak amplitude, and that ten round bursts can be counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.batch import find_local_maxima_batch
from ..core.pipeline import HTDetectionPlatform
from ..measurement.em_simulator import EMTrace
from .config import FIXED_KEY, FIXED_PLAINTEXT, ExperimentConfig


@dataclass
class Fig4Result:
    """The single averaged EM trace of Fig. 4 and its structure."""

    trace: EMTrace
    num_samples: int
    peak_amplitude: float
    round_burst_count: int
    samples_per_cycle: int

    def rounds_visible(self) -> bool:
        """True if at least the ten AES rounds produce distinct bursts."""
        return self.round_burst_count >= 10


def count_round_bursts(trace: EMTrace, samples_per_cycle: int) -> int:
    """Count distinct activity bursts by finding well-separated envelope peaks."""
    envelope = np.abs(trace.samples)
    threshold = 0.3 * envelope.max()
    peaks = find_local_maxima_batch(
        envelope[None, :], min_height=threshold,
        min_distance=max(2, samples_per_cycle // 2))
    return int(np.count_nonzero(peaks))


def run(config: Optional[ExperimentConfig] = None,
        platform: Optional[HTDetectionPlatform] = None) -> Fig4Result:
    """Acquire the Fig. 4 trace on the golden design."""
    config = config or ExperimentConfig.fast()
    platform = platform or config.build_platform()
    rng = np.random.default_rng(config.seed)
    dut = platform.golden_dut(0, label="Genuine AES")
    trace = platform.em_simulator.acquire(dut, FIXED_PLAINTEXT, FIXED_KEY, rng)
    samples_per_cycle = platform.em_simulator.config.samples_per_cycle
    return Fig4Result(
        trace=trace,
        num_samples=len(trace),
        peak_amplitude=float(np.abs(trace.samples).max()),
        round_burst_count=count_round_bursts(trace, samples_per_cycle),
        samples_per_cycle=samples_per_cycle,
    )
