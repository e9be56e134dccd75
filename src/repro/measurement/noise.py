"""Measurement noise models.

Both measurement chains of the paper fight noise by repetition:

* the delay platform repeats every (plaintext, key) measurement 10 times
  "to lower measurement noise" — the noise term ``dM_r`` of Eq. (2)
  covers metastability resolution, temperature and supply fluctuations;
* the oscilloscope averages every EM trace 1 000 times, and a second
  "setup installation" noise appears when the probe/board are physically
  re-installed between acquisitions (studied in Fig. 5).

This module centralises those noise sources so experiments can control
them (including turning them off) from one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Standard deviation of the per-repetition delay measurement noise (ps).
DEFAULT_DELAY_NOISE_PS = 20.0
#: Standard deviation of the raw (single-shot) EM amplitude noise, in
#: oscilloscope units (the paper's traces span roughly +/- 2e4 units).
DEFAULT_EM_NOISE = 800.0
#: Relative gain error introduced by re-installing the measurement setup.
#: Fig. 5 of the paper shows this effect to be negligible once traces are
#: averaged 1 000 times; the default keeps it an order of magnitude below
#: the process-variation spread.
DEFAULT_SETUP_GAIN_SIGMA = 0.003
#: Additive offset introduced by re-installing the measurement setup.
DEFAULT_SETUP_OFFSET_SIGMA = 10.0


@dataclass
class DelayNoiseModel:
    """Per-repetition noise of the clock-glitch delay measurement."""

    sigma_ps: float = DEFAULT_DELAY_NOISE_PS

    def __post_init__(self) -> None:
        if self.sigma_ps < 0:
            raise ValueError("sigma_ps must be non-negative")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw noise offsets (ps) of the requested shape."""
        if self.sigma_ps == 0:
            return np.zeros(size)
        return rng.normal(0.0, self.sigma_ps, size=size)


@dataclass
class EMNoiseModel:
    """Noise of the EM acquisition chain.

    Attributes
    ----------
    sigma_single_shot:
        Standard deviation of the amplitude noise of a single raw trace.
    setup_gain_sigma, setup_offset_sigma:
        Spread of the multiplicative / additive perturbation introduced
        every time the physical setup is re-installed.
    """

    sigma_single_shot: float = DEFAULT_EM_NOISE
    setup_gain_sigma: float = DEFAULT_SETUP_GAIN_SIGMA
    setup_offset_sigma: float = DEFAULT_SETUP_OFFSET_SIGMA

    def __post_init__(self) -> None:
        if self.sigma_single_shot < 0:
            raise ValueError("sigma_single_shot must be non-negative")
        if self.setup_gain_sigma < 0 or self.setup_offset_sigma < 0:
            raise ValueError("setup noise sigmas must be non-negative")

    def sample_acquisitions(self, rng: np.random.Generator,
                            num_traces: int, num_samples: int,
                            noise_sigma: float, new_setup_installation: bool
                            ) -> "tuple[Optional[np.ndarray], ...]":
        """``(gains, offsets, noise)`` of ``num_traces`` acquisitions.

        One standard-normal block whose row ``r`` holds trace ``r``'s
        draws in trace-by-trace order: setup gain and offset (on a new
        installation, each if its sigma is non-zero), then the samples'
        noise (if ``noise_sigma`` is).  ``0.0 + sigma * z`` is bit for
        bit ``rng.normal(0.0, sigma)``.  Absent parts are ``None``.
        """
        gain_sigma = self.setup_gain_sigma
        offset_sigma = self.setup_offset_sigma
        lead = (gain_sigma > 0) + (offset_sigma > 0) \
            if new_setup_installation else 0
        draws = rng.standard_normal(
            (num_traces, lead + (num_samples if noise_sigma > 0 else 0)))
        gains = offsets = noise = None
        if new_setup_installation:
            gains, offsets = np.ones(num_traces), np.zeros(num_traces)
            if gain_sigma > 0:
                gains += gain_sigma * draws[:, 0]
            if offset_sigma > 0:
                offsets += offset_sigma * draws[:, lead - 1]
        if noise_sigma > 0:
            noise = draws[:, lead:]
            noise *= noise_sigma
            noise += 0.0
        return gains, offsets, noise
