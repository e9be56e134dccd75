"""Figure 5: same-die comparison of genuine and infected EM traces.

Fig. 5 of the paper overlays three averaged traces acquired with the
same plaintext on the same die: two acquisitions of the genuine AES
(taken after physically re-installing the setup, to expose the setup
noise) and one acquisition of the AES infected with the combinational
trojan.  The two genuine traces are nearly identical while the infected
trace departs at specific samples — the dormant trojan is detected by
direct comparison.

The driver reproduces the three traces and reports the two headline
quantities of the figure: the genuine-vs-genuine residual (setup +
averaging noise) and the genuine-vs-infected difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.traces import abs_difference
from ..campaigns.engine import CampaignEngine
from ..core.pipeline import SameDieEMStudyResult


@dataclass
class Fig5Result:
    """The three traces of Fig. 5 and their pairwise differences."""

    study: SameDieEMStudyResult
    trojan_name: str
    genuine_vs_genuine_max: float
    genuine_vs_infected_max: float
    detected: bool

    def contrast(self) -> float:
        """Ratio of the infected difference to the setup/averaging residual."""
        if self.genuine_vs_genuine_max == 0.0:
            return float("inf")
        return self.genuine_vs_infected_max / self.genuine_vs_genuine_max


def run(engine: CampaignEngine, trojan_name: str = "HT_comb") -> Fig5Result:
    """Run the same-die EM comparison of Fig. 5."""
    spec = engine.spec
    study = engine.platform.run_same_die_em_study(
        trojan_names=(trojan_name,),
        die_index=0,
        plaintext=spec.plaintext,
        key=spec.key,
        num_golden_acquisitions=2,
    )
    genuine_1 = study.golden_traces[0].samples
    genuine_2 = study.golden_traces[1].samples
    infected = study.infected_traces[trojan_name].samples
    return Fig5Result(
        study=study,
        trojan_name=trojan_name,
        genuine_vs_genuine_max=float(abs_difference(genuine_1, genuine_2).max()),
        genuine_vs_infected_max=float(abs_difference(genuine_1, infected).max()),
        detected=study.comparisons[trojan_name].outcome.is_infected,
    )
