"""Figure 7 / Equation (5): the two-Gaussian false-negative model.

Fig. 7 of the paper sketches the probability density of the EM detection
metric for the genuine and infected populations: two Gaussians of common
standard deviation separated by an offset ``mu`` that depends on the
trojan size; the false-negative (= false-positive) rate of the symmetric
decision is Eq. (5).

The driver fits that model to the simulated populations (for one
trojan), evaluates Eq. (5), and cross-checks the analytic rate against
an empirical Monte-Carlo decision on the fitted Gaussians.

It acquires its own (golden, trojan) population on the paper's fixed
plaintext instead of reading the suite's shared HT1-HT3 population: the
per-die noise streams are consumed design by design (golden, HT1, HT2,
...), so the trojan's rows in the shared population differ from the
rows of a population that holds only that trojan, and Fig. 7's printed
numbers are those of the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..analysis.gaussian import GaussianFit, overlap_threshold
from ..campaigns.engine import CampaignEngine
from ..core.em_detector import PopulationCharacterisation, PopulationEMDetector
from ..core.metrics import false_negative_rate


@dataclass
class Fig7Result:
    """Fitted two-Gaussian model and its error rates."""

    trojan_name: str
    characterisation: PopulationCharacterisation
    threshold: float
    analytic_false_negative: float
    empirical_false_negative: float
    empirical_false_positive: float

    @property
    def mu(self) -> float:
        return self.characterisation.mu

    @property
    def sigma(self) -> float:
        return self.characterisation.sigma


def empirical_rates(genuine: GaussianFit, infected: GaussianFit,
                    threshold: float, num_samples: int = 50000,
                    seed: int = 0) -> "tuple[float, float]":
    """Monte-Carlo false-negative / false-positive rates of the fitted model."""
    rng = np.random.default_rng(seed)
    genuine_samples = genuine.sample(rng, num_samples)
    infected_samples = infected.sample(rng, num_samples)
    false_positive = float((genuine_samples > threshold).mean())
    false_negative = float((infected_samples <= threshold).mean())
    return false_negative, false_positive


def run(engine: CampaignEngine, trojan_name: str = "HT2") -> Fig7Result:
    """Fit the Fig. 7 model for ``trojan_name`` and evaluate Eq. (5)."""
    spec = engine.spec
    tensors = engine.platform.acquire_population_tensors(
        (trojan_name,), [spec.plaintext], spec.key)
    _, characterisations = PopulationEMDetector().fit_and_characterise(
        tensors.golden, tensors.infected)
    characterisation = characterisations[trojan_name]

    threshold = overlap_threshold(characterisation.genuine,
                                  characterisation.infected)
    analytic = false_negative_rate(characterisation.mu, characterisation.sigma)
    # Evaluate the fitted model empirically at the symmetric threshold; the
    # equal-sigma assumption of Eq. (5) makes both rates coincide.
    symmetric_genuine = GaussianFit(characterisation.genuine.mean,
                                    characterisation.sigma)
    symmetric_infected = GaussianFit(characterisation.infected.mean,
                                     characterisation.sigma)
    empirical_fn, empirical_fp = empirical_rates(
        symmetric_genuine, symmetric_infected, threshold, seed=spec.seed
    )
    return Fig7Result(
        trojan_name=trojan_name,
        characterisation=characterisation,
        threshold=threshold,
        analytic_false_negative=analytic,
        empirical_false_negative=empirical_fn,
        empirical_false_positive=empirical_fp,
    )
