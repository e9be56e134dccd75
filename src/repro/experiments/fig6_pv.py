"""Figure 6: impact of inter-die process variations on EM differences.

Fig. 6 of the paper plots, over a window of samples, the absolute
difference ``Dg_j = |G_j - E_8(G)|`` for every golden die (the
process-variation floor) and ``Dt_{s,j} = |T_{s,j} - E_8(G)|`` for every
infected die — showing that an HT of 1 % of the AES already rises above
the process-variation fluctuation at specific samples.

The driver reads the Sec. V population of the config's campaign (one
trace per (design, die), averaged over the config's stimulus set, one
fixed plaintext by default) from a
:class:`~repro.campaigns.engine.CampaignEngine` as matrices, builds the
mean golden reference and reports the per-die difference traces and
their peak statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.batch import abs_difference_matrix
from ..campaigns.engine import CampaignEngine
from .config import ExperimentConfig


@dataclass
class Fig6Result:
    """Per-die difference traces against the mean golden trace."""

    reference_mean: np.ndarray
    golden_differences: List[np.ndarray]
    infected_differences: Dict[str, List[np.ndarray]]
    trojan_names: Sequence[str]

    def golden_peak_per_die(self) -> List[float]:
        """max_t Dg_j for every golden die j."""
        return [float(diff.max()) for diff in self.golden_differences]

    def infected_peak_per_die(self, trojan_name: str) -> List[float]:
        """max_t Dt_{s,j} for every die j of trojan ``trojan_name``."""
        return [float(diff.max())
                for diff in self.infected_differences[trojan_name]]

    def golden_envelope(self) -> float:
        """Worst process-variation difference over all golden dies."""
        return max(self.golden_peak_per_die())

    def exceeds_pv_envelope(self, trojan_name: str) -> int:
        """Number of dies whose infected difference rises above the PV envelope."""
        envelope = self.golden_envelope()
        return int(sum(peak > envelope
                       for peak in self.infected_peak_per_die(trojan_name)))


def run(config: Optional[ExperimentConfig] = None,
        engine: Optional[CampaignEngine] = None) -> Fig6Result:
    """Build the Fig. 6 differences of the 4-design x N-die population.

    ``engine`` is the suite's campaign engine (a fresh one over
    ``config.campaign_spec()`` by default); its population is shared
    with the headline study, so the suite acquires it only once.
    """
    config = config or ExperimentConfig.fast()
    engine = engine or CampaignEngine(config.campaign_spec())
    (cell,) = engine.spec.grid()
    golden_matrix, infected_matrices = engine.cell_trace_matrices(cell)
    # Matrix-resident difference build: the |G_j - E(G)| planes come
    # from one batched abs-difference per design — bit-identical to the
    # per-trace ``abs_difference`` loop.
    reference = golden_matrix.mean(axis=0)
    golden_differences = list(abs_difference_matrix(golden_matrix, reference))
    infected_differences = {
        name: list(abs_difference_matrix(matrix, reference))
        for name, matrix in infected_matrices.items()
    }
    return Fig6Result(
        reference_mean=reference,
        golden_differences=golden_differences,
        infected_differences=infected_differences,
        trojan_names=engine.spec.trojans,
    )
