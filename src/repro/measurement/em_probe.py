"""EM probe and amplifier models.

The paper's EM chain is a Langer RFU-5-2 near-field probe (capturing the
*global* EM activity of the chip), a 30 dB Langer power amplifier and an
Agilent 5 GS/s oscilloscope.  The probe and amplifier are modelled by:

* a spatial coupling factor between each activity source (a region of
  slices) and the probe position — broad for a global probe,
* a band-pass impulse response: every current pulse drawn on a clock
  edge rings through the probe/amplifier chain as a damped oscillation,
* a linear gain (the amplifier's 30 dB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Default ringing frequency of the probe response, in MHz.
DEFAULT_RINGING_FREQUENCY_MHZ = 200.0
#: Default decay constant of the probe response, in ns.
DEFAULT_DECAY_NS = 4.0
#: Default spatial decay of the probe coupling, in slices (a global probe
#: sees the whole die almost uniformly).
DEFAULT_COUPLING_DECAY_SLICES = 120.0


@dataclass(frozen=True)
class EMProbe:
    """Near-field EM probe above the package.

    Parameters
    ----------
    position:
        Probe position in slice coordinates (row, column).  The paper
        keeps the probe position fixed while swapping dies in the ZIF
        socket, which is why the position is part of the bench, not of
        the DUT.
    coupling_decay_slices:
        Spatial selectivity; large values model a global probe.
    gain:
        Conversion factor from switching activity to probe output
        amplitude (arbitrary units).
    """

    position: Tuple[float, float] = (40.0, 30.0)
    coupling_decay_slices: float = DEFAULT_COUPLING_DECAY_SLICES
    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.coupling_decay_slices <= 0:
            raise ValueError("coupling_decay_slices must be positive")
        if self.gain <= 0:
            raise ValueError("gain must be positive")

    def coupling(self, source_position: Tuple[float, float]) -> float:
        """Coupling weight between an activity source and the probe."""
        distance = math.hypot(source_position[0] - self.position[0],
                              source_position[1] - self.position[1])
        return self.gain * math.exp(-distance / self.coupling_decay_slices)


@dataclass(frozen=True)
class Amplifier:
    """Wide-band power amplifier (the paper uses a 30 dB Langer EMV)."""

    gain_db: float = 30.0

    def __post_init__(self) -> None:
        if self.gain_db < 0:
            raise ValueError("gain_db must be non-negative")

    @property
    def linear_gain(self) -> float:
        """Voltage gain corresponding to ``gain_db``."""
        return 10.0 ** (self.gain_db / 20.0)


def probe_impulse_response(sample_rate_gsps: float,
                           ringing_frequency_mhz: float = DEFAULT_RINGING_FREQUENCY_MHZ,
                           decay_ns: float = DEFAULT_DECAY_NS,
                           duration_ns: float = 20.0) -> np.ndarray:
    """Impulse response of the probe/amplifier chain.

    A current pulse on a clock edge appears at the oscilloscope as a
    damped sinusoid; this kernel is convolved with the per-cycle
    activity impulses by the EM simulator.
    """
    if sample_rate_gsps <= 0:
        raise ValueError("sample_rate_gsps must be positive")
    if decay_ns <= 0 or duration_ns <= 0:
        raise ValueError("decay_ns and duration_ns must be positive")
    num_samples = max(1, int(round(duration_ns * sample_rate_gsps)))
    t_ns = np.arange(num_samples) / sample_rate_gsps
    omega = 2.0 * math.pi * ringing_frequency_mhz * 1e-3  # rad per ns
    response = np.exp(-t_ns / decay_ns) * np.sin(omega * t_ns)
    # Normalise the peak so the simulator's activity scale is independent
    # of the ringing parameters.
    peak = np.max(np.abs(response))
    if peak > 0:
        response = response / peak
    return response
