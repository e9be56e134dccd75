"""Figure 6: impact of inter-die process variations on EM differences.

Fig. 6 of the paper plots, over a window of samples, the absolute
difference ``Dg_j = |G_j - E_8(G)|`` for every golden die (the
process-variation floor) and ``Dt_{s,j} = |T_{s,j} - E_8(G)|`` for every
infected die — showing that an HT of 1 % of the AES already rises above
the process-variation fluctuation at specific samples.

The driver acquires one trace per (design, die) — averaged over the
config's stimulus set, one fixed plaintext by default — builds the mean
golden reference and reports the per-die difference traces and their
peak statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.batch import abs_difference_matrix
from ..analysis.traces import stack_traces
from ..core.pipeline import HTDetectionPlatform
from .config import FIXED_KEY, ExperimentConfig


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
        platform: Optional[HTDetectionPlatform] = None,
        trojan_names: Sequence[str] = ("HT1", "HT2", "HT3"),
        traces: "Optional[tuple]" = None) -> Fig6Result:
    """Acquire the 4-design x N-die traces and build the Fig. 6 differences.

    ``traces`` optionally feeds an already-acquired
    ``(golden_traces, infected_traces)`` population (e.g. from the
    campaign engine) so the suite acquires each population only once.
    """
    config = config or ExperimentConfig.fast()
    platform = platform or config.build_platform()

    if traces is not None:
        golden_traces, infected_traces = traces
    else:
        tensors = platform.acquire_population_tensors(
            trojan_names, config.stimulus_plaintexts(), FIXED_KEY
        )
        golden_traces, infected_traces = tensors.golden, tensors.infected
    # Matrix-resident difference build: stack each population once (a
    # pre-stacked ndarray passes through) and take the |G_j - E(G)|
    # planes from one batched abs-difference per design — bit-identical
    # to the per-trace ``abs_difference`` loop.
    golden_matrix = stack_traces(golden_traces)
    reference = golden_matrix.mean(axis=0)
    golden_differences = list(abs_difference_matrix(golden_matrix, reference))
    infected_differences = {
        name: list(abs_difference_matrix(stack_traces(population), reference))
        for name, population in infected_traces.items()
    }
    return Fig6Result(
        reference_mean=reference,
        golden_differences=golden_differences,
        infected_differences=infected_differences,
        trojan_names=tuple(trojan_names),
    )
