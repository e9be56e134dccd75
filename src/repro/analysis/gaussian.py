"""Gaussian modelling of detection-metric distributions.

Section V-B models the detection metric of genuine and infected
populations as two Gaussians separated by an offset ``mu`` (Fig. 7); the
false-negative / false-positive rate follows from the overlap (Eq. 5).
This module provides the fitting and overlap primitives; the pooled
sigma and the paper's formula itself are batched in
:mod:`repro.analysis.batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianFit:
    """A fitted (or assumed) normal distribution."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("std must be non-negative")

    def pdf(self, x: Sequence[float]) -> np.ndarray:
        """Probability density at ``x``."""
        if self.std == 0:
            raise ValueError("pdf undefined for a degenerate (std=0) fit")
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * _SQRT_2PI)

    def cdf(self, x: float) -> float:
        """Cumulative probability below ``x``."""
        if self.std == 0:
            return float(x >= self.mean)
        # erfc keeps the lower tail accurate where 0.5 * (1 + erf) cancels.
        z = (x - self.mean) / self.std
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw samples from the fitted distribution."""
        return rng.normal(self.mean, self.std, size=size)


def fit_gaussian(samples: Sequence[float]) -> GaussianFit:
    """Fit a normal distribution to samples (MLE mean and unbiased std)."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot fit a Gaussian to an empty sample")
    if data.size == 1:
        return GaussianFit(mean=float(data[0]), std=0.0)
    return GaussianFit(mean=float(data.mean()), std=float(data.std(ddof=1)))


def overlap_threshold(genuine: GaussianFit, infected: GaussianFit) -> float:
    """Equal-error decision threshold between two Gaussians.

    With equal standard deviations this is the midpoint of the means —
    the threshold implied by Fig. 7 where the false-positive and
    false-negative areas are equal.
    """
    return (genuine.mean + infected.mean) / 2.0
