"""Figure 2: principle of the path measurement for one (P, K) pair.

Fig. 2 of the paper illustrates how the iterative decrease of the clock
period turns path delays into step counts: as the glitched period
shrinks, more and more ciphertext bits cross their setup limit and start
to fault.  The experiment reproduces that staircase — the number of
faulted bits as a function of the glitch step — on the golden design and
on an infected design, showing the trojan-induced shift of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..campaigns.engine import CampaignEngine
from ..measurement.delay_meter import generate_pk_pairs


@dataclass
class Fig2Result:
    """Faulted-bit staircases of the golden and one infected design."""

    glitch_start_ps: float
    glitch_step_ps: float
    golden_staircase: Dict[int, int]
    infected_staircase: Dict[int, int]
    trojan_name: str

    def first_fault_step(self, staircase: Dict[int, int]) -> Optional[int]:
        """First step at which at least one bit faults."""
        for step in sorted(staircase):
            if staircase[step] > 0:
                return step
        return None

    def golden_first_fault_step(self) -> Optional[int]:
        return self.first_fault_step(self.golden_staircase)

    def infected_first_fault_step(self) -> Optional[int]:
        return self.first_fault_step(self.infected_staircase)


def run(engine: CampaignEngine, trojan_name: str = "HT_comb",
        pair_index: int = 0) -> Fig2Result:
    """Build the Fig. 2 staircase for (P, K) pair ``pair_index`` of the
    campaign's ``num_pk_pairs`` pairs, on the spec's delay bench."""
    spec, platform = engine.spec, engine.platform
    pair = generate_pk_pairs(spec.num_pk_pairs,
                             seed=spec.pk_pair_seed())[pair_index]

    meter = platform.delay_meter
    golden_dut = platform.golden_dut(0, label="GM")
    infected_dut = platform.infected_dut(trojan_name, 0, label=trojan_name)
    glitch = meter.calibrate_glitch(golden_dut, [pair])

    golden_staircase = meter.fault_staircase(golden_dut, pair, glitch,
                                             seed=spec.seed)
    infected_staircase = meter.fault_staircase(infected_dut, pair, glitch,
                                               seed=spec.seed)
    return Fig2Result(
        glitch_start_ps=glitch.start_period_ps,
        glitch_step_ps=glitch.step_ps,
        golden_staircase=golden_staircase,
        infected_staircase=infected_staircase,
        trojan_name=trojan_name,
    )
