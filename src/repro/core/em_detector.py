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
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.batch import characterise_score_populations
from ..analysis.gaussian import GaussianFit
from ..analysis.traces import TraceLike, abs_difference, as_samples, stack_traces
from .decision import DetectionOutcome, ThresholdPolicy
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


@dataclass
class PopulationComparison:
    """Decision for one device against the golden population."""

    label: str
    score: float
    outcome: DetectionOutcome


class PopulationEMDetector:
    """Inter-die EM detection using the local-maxima-sum metric.

    Parameters
    ----------
    metric:
        The trace-to-score metric (defaults to the paper's
        local-maxima-sum).
    policy:
        Decision policy for single-device verdicts, calibrated on the
        golden population's scores.
    """

    def __init__(self, metric: Optional[LocalMaximaSumMetric] = None,
                 policy: Optional[ThresholdPolicy] = None):
        self.metric = metric or LocalMaximaSumMetric()
        self.policy = policy or ThresholdPolicy(num_sigmas=3.0)
        self.reference: Optional[EMReference] = None
        self._golden_scores: Optional[np.ndarray] = None

    # -- reference construction ---------------------------------------------------

    def fit_reference(self, golden_traces: Sequence[TraceLike]) -> EMReference:
        """Build the mean-golden reference and the golden score population.

        ``golden_traces`` may be a trace list or a pre-stacked
        ``(num_traces, num_samples)`` ndarray; either way the population
        is stacked once and both the reference statistics and the whole
        golden score population come out of single batched passes
        (:meth:`~repro.core.metrics.LocalMaximaSumMetric.scores_matrix`)
        — bit-identical to the per-trace serial loop.
        """
        if len(golden_traces) < 2:
            raise ValueError(
                "the population detector needs at least two golden traces"
            )
        matrix = stack_traces(golden_traces)
        self.reference = EMReference.from_matrix(matrix, label="E(G)")
        self._golden_scores = self._population_scores(matrix)
        return self.reference

    def _population_scores(self, matrix: np.ndarray) -> np.ndarray:
        """Score a stacked population, falling back for custom metrics."""
        scores_matrix = getattr(self.metric, "scores_matrix", None)
        if scores_matrix is not None:
            return scores_matrix(matrix, self.reference.mean)
        return self.metric.scores(matrix, self.reference.mean)

    def golden_scores(self) -> np.ndarray:
        """Scores of the golden population against its own mean."""
        if self._golden_scores is None:
            raise RuntimeError("call fit_reference() before using the detector")
        return self._golden_scores

    # -- scoring and decisions ----------------------------------------------------------

    def score(self, trace: TraceLike) -> float:
        """Metric score of one device against the golden reference."""
        if self.reference is None:
            raise RuntimeError("call fit_reference() before using the detector")
        return self.metric.score(trace, self.reference.mean)

    def scores(self, traces: Sequence[TraceLike]) -> np.ndarray:
        """Scores of a whole population in one batched call.

        Accepts a trace list or a pre-stacked matrix; bit-identical to
        calling :meth:`score` per trace.
        """
        if self.reference is None:
            raise RuntimeError("call fit_reference() before using the detector")
        return self._population_scores(stack_traces(traces))

    def compare(self, trace: TraceLike, label: str = "DUT") -> PopulationComparison:
        """Accept/reject one device."""
        score = self.score(trace)
        outcome = self.policy.decide(
            label=label,
            score=score,
            reference_scores=list(self.golden_scores()),
            details="sum of local maxima of |trace - E(G)|",
        )
        return PopulationComparison(label=label, score=score, outcome=outcome)

    def characterise(self, infected_traces: Sequence[TraceLike]
                     ) -> PopulationCharacterisation:
        """Fit the two-Gaussian model of Fig. 7 and evaluate Eq. (5).

        ``infected_traces`` are the traces of the *same* trojan across the
        die population (a trace list or a pre-stacked matrix); the
        genuine population is the one the reference was fitted on.  The
        whole population is scored in one batched call.
        """
        if len(infected_traces) == 0:
            raise ValueError("at least one infected trace is required")
        infected_scores = self._population_scores(
            stack_traces(infected_traces)
        )
        return self._characterise_rows(infected_scores[None, :])[0]

    def _characterise_rows(self, score_matrix: np.ndarray
                           ) -> "List[PopulationCharacterisation]":
        """Two-Gaussian model of each infected score population (one per row)."""
        fits = characterise_score_populations(self.golden_scores(),
                                              score_matrix)
        return [
            PopulationCharacterisation(
                genuine=fits.genuine,
                infected=GaussianFit(mean=float(fits.infected_means[index]),
                                     std=float(fits.infected_stds[index])),
                mu=float(fits.mus[index]),
                sigma=float(fits.sigmas[index]),
                false_negative_rate=float(fits.rates[index]),
            )
            for index in range(score_matrix.shape[0])
        ]

    def _stack_populations(self, infected_populations: "Dict[str, Sequence[TraceLike]]"
                           ) -> "tuple[List[str], List[np.ndarray]]":
        names = list(infected_populations)
        matrices = []
        for name in names:
            population = infected_populations[name]
            if len(population) == 0:
                raise ValueError("at least one infected trace is required")
            matrices.append(stack_traces(population))
        return names, matrices

    def _infected_scores(self, matrices: "List[np.ndarray]") -> np.ndarray:
        """Every population's scores, concatenated in ``matrices`` order.

        One batched call per population, straight on its matrix.  A
        single call over the concatenated matrices was slower: the copy
        and its working set leave the cache (about 20 % slower at 8, 32
        and 128 dies).  Scores are per row, so the bytes are the same.
        """
        if not matrices:
            return np.empty(0)
        return np.concatenate([self._population_scores(matrix)
                               for matrix in matrices])

    def _characterise_population_scores(self, names: "List[str]",
                                        matrices: "List[np.ndarray]",
                                        scores: np.ndarray
                                        ) -> "Dict[str, PopulationCharacterisation]":
        """Split one concatenated score vector and characterise per trojan.

        ``scores`` holds the infected populations' scores concatenated
        in ``names`` order.  In the study shape (every population one
        score per die) every trojan is characterised by one batched
        call; populations of unequal size are characterised one by one.
        Either way each result is bit-identical to :meth:`characterise`
        on that trojan alone.
        """
        sizes = [matrix.shape[0] for matrix in matrices]
        if len(set(sizes)) == 1:
            rows = self._characterise_rows(scores.reshape(len(names), -1))
        else:
            bounds = np.cumsum([0] + sizes).tolist()
            rows = [self._characterise_rows(scores[None, begin:end])[0]
                    for begin, end in zip(bounds[:-1], bounds[1:])]
        return dict(zip(names, rows))

    def characterise_many(self, infected_populations: "Dict[str, Sequence[TraceLike]]"
                          ) -> "Dict[str, PopulationCharacterisation]":
        """Characterise several trojans' populations (trace lists or
        pre-stacked matrices); each result is bit-identical to
        :meth:`characterise` on that trojan alone.
        """
        if self.reference is None:
            raise RuntimeError("call fit_reference() before using the detector")
        names, matrices = self._stack_populations(infected_populations)
        if not names:
            return {}
        return self._characterise_population_scores(
            names, matrices, self._infected_scores(matrices))

    def fit_and_characterise(self, golden_traces: Sequence[TraceLike],
                             infected_populations: "Dict[str, Sequence[TraceLike]]"
                             ) -> "tuple[EMReference, Dict[str, PopulationCharacterisation]]":
        """Fit the reference and characterise every trojan in one call.

        The golden population and every infected population are each
        scored by one batched score-matrix call (see
        :meth:`_infected_scores`).  The golden scores, the reference and
        every characterisation are bit-identical to the two-step
        :meth:`fit_reference` + :meth:`characterise` path.
        """
        if len(golden_traces) < 2:
            raise ValueError(
                "the population detector needs at least two golden traces"
            )
        golden_matrix = stack_traces(golden_traces)
        names, matrices = self._stack_populations(infected_populations)
        self.reference = EMReference.from_matrix(golden_matrix, label="E(G)")
        self._golden_scores = self._population_scores(golden_matrix)
        return self.reference, self._characterise_population_scores(
            names, matrices, self._infected_scores(matrices)
        )
