"""Inter-die (die-to-die) process-variation model.

Section V of the paper studies how inter-die process variations — the
fact that two circuits fabricated with the same process have slightly
different physical and electrical behaviours — degrade side-channel HT
detection.  The paper models the process-variation effect as a random
Gaussian noise (citing Bowman et al.) and uses 8 Virtex-5 LX30 dies.

:class:`DieProfile` captures one physical die: a global delay scale
factor, a global EM emission gain, a small EM DC offset, and the seed of
its intra-die variation field.  :class:`DiePopulation` generates a
reproducible set of dies from a master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

#: Relative sigma of the die-to-die delay scale (65 nm typical ~ 3-5 %).
DEFAULT_SIGMA_DELAY_SCALE = 0.04
#: Relative sigma of the die-to-die EM emission gain.  Calibrated so that
#: the spread of |G_j - E(G)| across dies sits where the paper's Fig. 6
#: puts it relative to the HT1/HT2/HT3 offsets (false-negative rates of
#: roughly 26 % / 17 % / 5 %).
DEFAULT_SIGMA_EM_GAIN = 0.025
#: Sigma of the additive EM baseline offset (arbitrary oscilloscope units).
DEFAULT_SIGMA_EM_OFFSET = 5.0


@dataclass(frozen=True)
class DieProfile:
    """Electrical personality of one fabricated die."""

    die_id: int
    delay_scale: float
    em_gain: float
    em_offset: float
    intra_die_seed: int

    def __post_init__(self) -> None:
        if self.delay_scale <= 0:
            raise ValueError("delay_scale must be positive")
        if self.em_gain <= 0:
            raise ValueError("em_gain must be positive")


@dataclass
class DiePopulation:
    """A reproducible population of fabricated dies.

    Parameters
    ----------
    size:
        Number of dies (the paper uses 8; its perspectives call for
        ``n >> 8``).
    seed:
        Master seed; die ``k`` derives all its randomness from
        ``seed + k`` so populations of different sizes share their first
        dies.
    sigma_delay_scale, sigma_em_gain, sigma_em_offset:
        Spreads of the die-to-die parameters.
    """

    size: int
    seed: int = 2015
    sigma_delay_scale: float = DEFAULT_SIGMA_DELAY_SCALE
    sigma_em_gain: float = DEFAULT_SIGMA_EM_GAIN
    sigma_em_offset: float = DEFAULT_SIGMA_EM_OFFSET
    dies: List[DieProfile] = field(init=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("population size must be positive")
        if min(self.sigma_delay_scale, self.sigma_em_gain,
               self.sigma_em_offset) < 0:
            raise ValueError("population sigmas must be non-negative")
        self.dies = [self._make_die(index) for index in range(self.size)]

    def _make_die(self, index: int) -> DieProfile:
        rng = np.random.default_rng(self.seed + index)
        delay_scale = float(
            np.clip(rng.normal(1.0, self.sigma_delay_scale), 0.8, 1.2)
        )
        em_gain = float(
            np.clip(rng.normal(1.0, self.sigma_em_gain), 0.7, 1.3)
        )
        em_offset = float(rng.normal(0.0, self.sigma_em_offset))
        return DieProfile(
            die_id=index,
            delay_scale=delay_scale,
            em_gain=em_gain,
            em_offset=em_offset,
            intra_die_seed=self.seed * 1000 + index,
        )

    def __iter__(self) -> Iterator[DieProfile]:
        return iter(self.dies)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> DieProfile:
        return self.dies[index]
