"""EM-based hardware-trojan detection (Sec. IV and V).

Two detectors are provided, matching the two experimental situations of
the paper:

* :class:`SameDieEMDetector` — golden and suspect designs are programmed
  into the *same* die (Sec. IV, Fig. 5).  Process variation cancels, so
  a direct comparison of averaged traces against the golden reference is
  enough; the decision threshold is a multiple of the residual
  acquisition noise.

* :class:`PopulationEMDetector` — the suspect device is a *different*
  die than the golden references (Sec. V, Figs. 6-7).  The golden
  reference is the mean trace over a population of golden dies, the
  score is the sum of local maxima of the absolute difference, and the
  genuine/infected score distributions are modelled as Gaussians whose
  overlap gives the false-negative rate of Eq. (5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..analysis.batch import characterise_score_populations
from ..analysis.gaussian import GaussianFit
from ..analysis.traces import TraceLike, abs_difference, as_samples, stack_traces
from .decision import DetectionOutcome
from .fingerprint import EMReference
from .metrics import LocalMaximaSumMetric


@dataclass
class SameDieComparison:
    """Result of a same-die EM comparison (Sec. IV)."""

    label: str
    max_difference: float
    mean_difference: float
    noise_floor: float
    outcome: DetectionOutcome
    difference: np.ndarray = field(repr=False, default_factory=lambda: np.array([]))

    def significant_samples(self, factor: float = 1.0) -> np.ndarray:
        """Sample indices where the difference exceeds the threshold."""
        return np.flatnonzero(self.difference > self.outcome.threshold * factor)


class SameDieEMDetector:
    """Direct averaged-trace comparison on a single die.

    Parameters
    ----------
    reference:
        EM reference built from golden acquisitions on the same die
        (several acquisitions, ideally across setup re-installations, so
        the residual noise floor is known).
    num_sigmas:
        Decision threshold in multiples of the per-sample noise floor.
    """

    def __init__(self, reference: EMReference, num_sigmas: float = 5.0):
        if num_sigmas <= 0:
            raise ValueError("num_sigmas must be positive")
        self.reference = reference
        self.num_sigmas = num_sigmas

    def noise_floor(self) -> float:
        """Per-sample noise level of the golden reference."""
        floor = self.reference.noise_floor()
        if floor <= 0.0:
            # Single-trace reference: fall back to a tiny fraction of the
            # signal swing so the comparison stays meaningful.
            floor = float(np.abs(self.reference.mean).max()) * 1e-3
        return floor

    def compare(self, trace: TraceLike, label: str = "DUT") -> SameDieComparison:
        """Compare one averaged trace against the golden reference."""
        samples = as_samples(trace)
        if samples.size != self.reference.num_samples:
            raise ValueError(
                f"trace has {samples.size} samples, reference has "
                f"{self.reference.num_samples}"
            )
        difference = abs_difference(samples, self.reference.mean)
        noise = self.noise_floor()
        threshold = self.num_sigmas * noise
        score = float(difference.max())
        outcome = DetectionOutcome(
            label=label,
            score=score,
            threshold=threshold,
            is_infected=bool(score > threshold),
            details=f"max |trace - reference| vs {self.num_sigmas} x noise floor",
        )
        return SameDieComparison(
            label=label,
            max_difference=score,
            mean_difference=float(difference.mean()),
            noise_floor=noise,
            outcome=outcome,
            difference=difference,
        )


@dataclass
class PopulationCharacterisation:
    """Gaussian characterisation of genuine vs infected score populations."""

    genuine: GaussianFit
    infected: GaussianFit
    mu: float
    sigma: float
    false_negative_rate: float

    @property
    def detection_probability(self) -> float:
        return 1.0 - self.false_negative_rate


class PopulationEMDetector:
    """Inter-die EM detection using the local-maxima-sum metric.

    Parameters
    ----------
    metric:
        The trace-to-score metric (defaults to the paper's
        local-maxima-sum); any object with a
        ``scores_matrix(matrix, reference)`` method.
    """

    def __init__(self, metric: Optional[LocalMaximaSumMetric] = None):
        self.metric = metric or LocalMaximaSumMetric()

    def fit_and_characterise(self, golden_traces: Sequence[TraceLike],
                             infected_populations: "Dict[str, Sequence[TraceLike]]"
                             ) -> "tuple[EMReference, Dict[str, PopulationCharacterisation]]":
        """Fit the mean-golden reference and characterise every trojan.

        ``golden_traces`` and each of ``infected_populations`` (one per
        trojan, one trace per die) may be trace lists or pre-stacked
        ``(num_traces, num_samples)`` ndarrays.  Every population is
        scored by one batched ``metric.scores_matrix`` call straight on
        its matrix; one call over the concatenated matrices was slower
        (the copy and its working set leave the cache: about 20 % at
        8, 32 and 128 dies).  The two-Gaussian model of Fig. 7 and
        Eq. (5) are then evaluated for every trojan in one batched
        pass.
        """
        if len(golden_traces) < 2:
            raise ValueError(
                "the population detector needs at least two golden traces"
            )
        sizes = {len(population)
                 for population in infected_populations.values()}
        if len(sizes) != 1 or 0 in sizes:
            raise ValueError("every trojan needs one infected trace per die")
        golden_matrix = stack_traces(golden_traces)
        reference = EMReference.from_traces(golden_matrix, label="E(G)")
        fits = characterise_score_populations(
            self.metric.scores_matrix(golden_matrix, reference.mean),
            np.stack([self.metric.scores_matrix(stack_traces(population),
                                                reference.mean)
                      for population in infected_populations.values()]),
        )
        return reference, {
            name: PopulationCharacterisation(
                genuine=fits.genuine,
                infected=GaussianFit(mean=float(fits.infected_means[index]),
                                     std=float(fits.infected_stds[index])),
                mu=float(fits.mus[index]),
                sigma=float(fits.sigmas[index]),
                false_negative_rate=float(fits.rates[index]),
            )
            for index, name in enumerate(infected_populations)
        }
