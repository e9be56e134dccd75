"""Statistical helpers shared by the detectors and experiments."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's t-test between two samples; returns (statistic, p-value).

    Used as a secondary check that a trojan population's metric really
    differs from the golden population beyond process-variation noise.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("both samples need at least two observations")
    # scipy stays off the import path of every CLI command.
    from scipy import stats

    result = stats.ttest_ind(x, y, equal_var=False)
    return float(result.statistic), float(result.pvalue)


def normalised_difference(a: Sequence[float], b: Sequence[float]) -> float:
    """Cohen's d-like effect size between two samples."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("both samples need at least two observations")
    pooled = math.sqrt((x.var(ddof=1) + y.var(ddof=1)) / 2.0)
    if pooled == 0:
        return float("inf") if x.mean() != y.mean() else 0.0
    return float((y.mean() - x.mean()) / pooled)


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation (robust spread estimate)."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("mad of an empty sample is undefined")
    return float(np.median(np.abs(data - np.median(data))))


def robust_zscore(values: Sequence[float]) -> np.ndarray:
    """Robust z-scores (median/MAD based, with the 1.4826 consistency factor)."""
    data = np.asarray(values, dtype=float)
    spread = mad(data) * 1.4826
    if spread == 0:
        return np.zeros_like(data)
    return (data - np.median(data)) / spread


def empirical_rate(condition: Sequence[bool]) -> float:
    """Fraction of True entries (empirical probability)."""
    flags = np.asarray(condition, dtype=bool)
    if flags.size == 0:
        raise ValueError("empirical_rate of an empty sample is undefined")
    return float(flags.mean())


def bootstrap_mean_ci(values: Sequence[float], confidence: float = 0.95,
                      num_resamples: int = 2000, seed: int = 0
                      ) -> Tuple[float, float]:
    """Bootstrap confidence interval of the mean."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    means = rng.choice(data, size=(num_resamples, data.size), replace=True).mean(axis=1)
    lower = float(np.percentile(means, 100 * (1 - confidence) / 2))
    upper = float(np.percentile(means, 100 * (1 + confidence) / 2))
    return lower, upper
