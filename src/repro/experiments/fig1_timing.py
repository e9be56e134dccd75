"""Figure 1 / Equation (1): the synchronous timing constraint.

The first figure of the paper is conceptual: a register-to-register
stage whose clock period must satisfy
``Tclk > Dclk2q + DpMax + Tsetup - Tskew + Tjitter``.  The experiment
driver instantiates that constraint on the modelled AES last round: it
computes the static critical path of the golden design, sweeps the clock
period across the constraint and reports where the setup condition
starts to fail — the mechanism every later delay experiment relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.pipeline import HTDetectionPlatform
from ..measurement.clock import TimingBudget
from ..netlist.compiled import CompiledTimingEngine
from .config import ExperimentConfig


@dataclass
class TimingConstraintPoint:
    """One point of the clock-period sweep."""

    clock_period_ps: float
    slack_ps: float
    violates_setup: bool


@dataclass
class Fig1Result:
    """Output of the timing-constraint experiment."""

    critical_path_ps: float
    required_period_ps: float
    nominal_period_ps: float
    nominal_slack_ps: float
    sweep: List[TimingConstraintPoint]

    def first_violating_period_ps(self) -> Optional[float]:
        """Largest swept period that violates setup (None if none does)."""
        violating = [p.clock_period_ps for p in self.sweep if p.violates_setup]
        return max(violating) if violating else None


def run(config: Optional[ExperimentConfig] = None,
        platform: Optional[HTDetectionPlatform] = None,
        num_sweep_points: int = 40) -> Fig1Result:
    """Evaluate Eq. (1) on the golden design and sweep the clock period."""
    config = config or ExperimentConfig.fast()
    platform = platform or config.build_platform()
    budget = TimingBudget()

    dut = platform.golden_dut(0, label="GM")
    engine = CompiledTimingEngine(dut.netlist, dut.delay_annotation())
    critical_path = float(engine.critical_path_ps()[0])
    required = budget.required_period_ps(critical_path)
    nominal = platform.device.nominal_clock_period_ps

    periods = np.linspace(required * 0.8, required * 1.2, num_sweep_points)
    sweep = [
        TimingConstraintPoint(
            clock_period_ps=float(period),
            slack_ps=budget.setup_slack_ps(float(period), critical_path),
            violates_setup=budget.violates_setup(float(period), critical_path),
        )
        for period in periods
    ]
    return Fig1Result(
        critical_path_ps=critical_path,
        required_period_ps=required,
        nominal_period_ps=nominal,
        nominal_slack_ps=budget.setup_slack_ps(nominal, critical_path),
        sweep=sweep,
    )
