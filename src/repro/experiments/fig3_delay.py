"""Figure 3: per-bit delay differences for clean and infected designs.

Fig. 3 of the paper plots, for two representative (P, K) pairs (no. 13
and no. 47), the Eq. (4) delay difference of every ciphertext bit for
four devices measured against the golden model: two clean re-measurements
(Clean1, Clean2) and the two trojans (HTcomb, HTseq).  The clean curves
stay near the measurement-noise floor while the infected curves show
large shifts on the bits whose paths the trojan disturbs — including for
HTseq, which is not logically connected to the datapath.

The driver reproduces those per-bit series and the summary statistics a
plot would show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..campaigns.engine import CampaignEngine
from ..core.pipeline import DelayStudyResult

#: The (P, K) pairs the paper plots (no. 13 and no. 47).
PAPER_PAIRS = (13, 47)


@dataclass
class Fig3Series:
    """One curve of Fig. 3: per-bit delay difference of one design, one pair."""

    label: str
    pair_index: int
    delay_difference_ps: np.ndarray

    def max_ps(self) -> float:
        return float(self.delay_difference_ps.max())

@dataclass
class Fig3Result:
    """All curves of Fig. 3 plus the campaign-level comparison."""

    series: List[Fig3Series]
    study: DelayStudyResult
    representative_pairs: Sequence[int]

    def clean_max_ps(self) -> float:
        """Largest delay difference seen on the clean control curves."""
        return max(s.max_ps() for s in self.series
                   if s.label.startswith("Clean"))

    def infected_max_ps(self) -> float:
        """Largest delay difference seen on the infected curves."""
        return max(s.max_ps() for s in self.series
                   if not s.label.startswith("Clean"))

    def separation_ratio(self) -> float:
        """Infected-to-clean ratio of the worst per-bit shift (paper: >> 1)."""
        clean = self.clean_max_ps()
        if clean == 0.0:
            return float("inf")
        return self.infected_max_ps() / clean


def run(engine: CampaignEngine,
        trojan_names: Sequence[str] = ("HT_comb", "HT_seq")) -> Fig3Result:
    """Run the Sec. III campaign and extract the Fig. 3 per-bit series.

    The campaign measures the spec's ``num_pk_pairs`` pairs; the curves
    are those of the paper's pairs 13 and 47 when the campaign has
    them, otherwise of its first and last pair.
    """
    spec = engine.spec
    study = engine.platform.run_delay_study(
        trojan_names=trojan_names,
        num_pairs=spec.num_pk_pairs,
        die_index=0,
        pair_seed=spec.pk_pair_seed(),
    )
    pair_indices = (list(PAPER_PAIRS) if spec.num_pk_pairs > max(PAPER_PAIRS)
                    else sorted({0, spec.num_pk_pairs - 1}))
    series: List[Fig3Series] = []
    for label, comparison in study.comparisons.items():
        for pair_index in pair_indices:
            series.append(
                Fig3Series(
                    label=label,
                    pair_index=pair_index,
                    delay_difference_ps=comparison.pair_profile(pair_index),
                )
            )
    return Fig3Result(series=series, study=study,
                      representative_pairs=pair_indices)
