"""Headline result: false-negative rate versus trojan size.

The paper's abstract and conclusion report that, with the sum-of-local-
maxima metric and 8 dies, the false-negative rates of HTs occupying
0.5 %, 1.0 % and 1.7 % of the AES area are 26 %, 17 % and 5 %, i.e. the
detection probability exceeds 95 % for trojans larger than 1.7 % of the
original circuit.

The driver reads the Sec. V study of the config's campaign from a
:class:`~repro.campaigns.engine.CampaignEngine` and produces that table,
together with the monotonicity and crossover checks the reproduction is
judged on (who wins, by how much, where the 95 % threshold falls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..campaigns.engine import CampaignEngine
from ..core.pipeline import PopulationEMStudyResult
from .config import ExperimentConfig

#: The paper's reported false-negative rates, keyed by trojan name.
PAPER_FALSE_NEGATIVE_RATES: Dict[str, float] = {
    "HT1": 0.26,
    "HT2": 0.17,
    "HT3": 0.05,
}

#: The paper's reported trojan sizes as a fraction of the AES area.
PAPER_AREA_FRACTIONS: Dict[str, float] = {
    "HT1": 0.005,
    "HT2": 0.010,
    "HT3": 0.017,
}


@dataclass
class HeadlineRow:
    """One row of the headline table."""

    trojan_name: str
    area_fraction: float
    mu: float
    sigma: float
    false_negative_rate: float
    detection_probability: float
    paper_false_negative_rate: Optional[float] = None


@dataclass
class HeadlineResult:
    """The headline table plus the qualitative checks."""

    rows: List[HeadlineRow]
    study: PopulationEMStudyResult

    def false_negative_rates(self) -> Dict[str, float]:
        return {row.trojan_name: row.false_negative_rate for row in self.rows}

    def is_monotone_decreasing(self) -> bool:
        """FN rate must decrease as the trojan grows (the paper's trend)."""
        rates = [row.false_negative_rate for row in
                 sorted(self.rows, key=lambda r: r.area_fraction)]
        return all(later <= earlier + 1e-9
                   for earlier, later in zip(rates, rates[1:]))

    def largest_trojan_detection(self) -> float:
        """Detection probability of the largest trojan (paper: > 95 %)."""
        largest = max(self.rows, key=lambda r: r.area_fraction)
        return largest.detection_probability

    def crossover_area_fraction(self, target_detection: float = 0.95
                                ) -> Optional[float]:
        """Smallest measured trojan size achieving the target detection rate."""
        eligible = [row.area_fraction for row in self.rows
                    if row.detection_probability >= target_detection]
        return min(eligible) if eligible else None


def run(config: Optional[ExperimentConfig] = None,
        engine: Optional[CampaignEngine] = None) -> HeadlineResult:
    """Produce the headline false-negative-rate table.

    ``engine`` is the suite's campaign engine (a fresh one over
    ``config.campaign_spec()`` by default); the table is its one cell's
    :meth:`~repro.campaigns.engine.CampaignEngine.population_study`.
    """
    config = config or ExperimentConfig.fast()
    engine = engine or CampaignEngine(config.campaign_spec())
    (cell,) = engine.spec.grid()
    study = engine.population_study(cell)
    rows: List[HeadlineRow] = []
    for name in engine.spec.trojans:
        characterisation = study.characterisations[name]
        rows.append(
            HeadlineRow(
                trojan_name=name,
                area_fraction=study.trojan_area_fractions[name],
                mu=characterisation.mu,
                sigma=characterisation.sigma,
                false_negative_rate=characterisation.false_negative_rate,
                detection_probability=characterisation.detection_probability,
                paper_false_negative_rate=PAPER_FALSE_NEGATIVE_RATES.get(name),
            )
        )
    return HeadlineResult(rows=rows, study=study)
