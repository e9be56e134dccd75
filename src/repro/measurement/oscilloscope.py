"""Digital storage oscilloscope model.

The paper acquires EM traces with an Agilent 54853A Infiniium DSO
configured at 5 GS/s, averaging each stored trace 1 000 times to push the
measurement noise down.  The oscilloscope model covers what matters to
the detection metric:

* the sampling grid (sample rate x clock frequency determines how many
  samples one AES encryption spans — about 3 000 in Fig. 4),
* vertical quantisation of the 8-bit ADC over a configurable full scale,
* on-board averaging of repeated acquisitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Paper value: the DSO runs at 5 GS/s.
DEFAULT_SAMPLE_RATE_GSPS = 5.0
#: Paper value: each stored trace is the average of 1 000 acquisitions.
DEFAULT_NUM_AVERAGES = 1000
#: Full scale of the vertical axis, in the arbitrary units used throughout
#: (the paper's traces span roughly +/- 2e4 units).
DEFAULT_FULL_SCALE = 65536.0
#: Vertical resolution of the ADC.
DEFAULT_ADC_BITS = 8


@dataclass(frozen=True)
class Oscilloscope:
    """Acquisition front-end: sampling, quantisation and averaging."""

    sample_rate_gsps: float = DEFAULT_SAMPLE_RATE_GSPS
    num_averages: int = DEFAULT_NUM_AVERAGES
    full_scale: float = DEFAULT_FULL_SCALE
    adc_bits: int = DEFAULT_ADC_BITS

    def __post_init__(self) -> None:
        if self.sample_rate_gsps <= 0:
            raise ValueError("sample_rate_gsps must be positive")
        if self.num_averages <= 0:
            raise ValueError("num_averages must be positive")
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")
        if not 1 <= self.adc_bits <= 24:
            raise ValueError("adc_bits must be in 1..24")

    def samples_for_duration_ns(self, duration_ns: float) -> int:
        """Number of samples spanning ``duration_ns``."""
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        return int(round(duration_ns * self.sample_rate_gsps))

    @property
    def lsb(self) -> float:
        """Single-shot quantisation step of the ADC."""
        return self.full_scale / (2 ** self.adc_bits)

    def effective_lsb(self) -> float:
        """Resolution of the averaged trace.

        The single-shot amplitude noise is much larger than one ADC step,
        so averaging N dithered acquisitions recovers sub-LSB resolution
        (processing gain of sqrt(N)); the stored trace is effectively
        quantised at ``lsb / sqrt(N)``.
        """
        return self.lsb / np.sqrt(self.num_averages)

    def quantise(self, signal: np.ndarray,
                 lsb: Optional[float] = None) -> np.ndarray:
        """Quantise a signal to the ADC grid (clipping at full scale)."""
        return self.quantise_in_place(np.array(signal, dtype=float), lsb)

    def quantise_in_place(self, values: np.ndarray,
                          lsb: Optional[float] = None) -> np.ndarray:
        """:meth:`quantise` into ``values`` itself, a float64 array."""
        half_scale = self.full_scale / 2.0
        step = self.lsb if lsb is None else float(lsb)
        if step <= 0:
            raise ValueError("quantisation step must be positive")
        np.clip(values, -half_scale, half_scale - step, out=values)
        values /= step
        np.round(values, out=values)
        values *= step
        return values

    def effective_noise_sigma(self, single_shot_sigma: float) -> float:
        """Residual noise after on-board averaging."""
        if single_shot_sigma < 0:
            raise ValueError("single_shot_sigma must be non-negative")
        return single_shot_sigma / np.sqrt(self.num_averages)
