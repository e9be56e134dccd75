"""Clock generation and clock-glitch sweep.

The delay-measurement platform of the paper uses an external FPGA board
as a clock generator able to shorten a single clock period (a "glitch")
of the device under test.  The glitched period is decreased iteratively
in 35 ps steps (51 decrements in the experiments) until ciphertext bits
start to fault on the attacked round.

This module provides:

* :class:`TimingBudget` — the synchronous timing constraint of Eq. (1)
  and Fig. 1 (setup condition of a register-to-register path),
* :class:`ClockGlitchGenerator` — the swept glitch period sequence,
* :class:`GlitchPulse` — one (offset, width) glitch pulse and its
  effective capture period, the per-point parameterisation of the
  attack-campaign glitch grids (:mod:`repro.attacks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

#: Paper value: the glitch period decreases in 35 ps steps.
DEFAULT_GLITCH_STEP_PS = 35.0
#: Paper value: 51 decrease steps were performed.
DEFAULT_GLITCH_STEPS = 51

#: Representative register timing parameters for the 65/90 nm FPGAs used
#: (clock-to-output, setup and hold of a slice flip-flop, in ps).
DEFAULT_CLK2Q_PS = 400.0
DEFAULT_SETUP_PS = 180.0
DEFAULT_HOLD_PS = 100.0
DEFAULT_SKEW_PS = 50.0
DEFAULT_JITTER_PS = 25.0


@dataclass(frozen=True)
class TimingBudget:
    """Synchronous timing constraint of one register-to-register stage.

    Equation (1) of the paper:
    ``Tclk > Dclk2q + DpMax + Tsetup - Tskew + Tjitter``.
    """

    clk2q_ps: float = DEFAULT_CLK2Q_PS
    setup_ps: float = DEFAULT_SETUP_PS
    hold_ps: float = DEFAULT_HOLD_PS
    skew_ps: float = DEFAULT_SKEW_PS
    jitter_ps: float = DEFAULT_JITTER_PS

    def __post_init__(self) -> None:
        if min(self.clk2q_ps, self.setup_ps, self.hold_ps) < 0:
            raise ValueError("timing parameters must be non-negative")

    def required_period_ps(self, propagation_ps: float) -> float:
        """Minimum clock period for a path of delay ``propagation_ps``."""
        return (self.clk2q_ps + propagation_ps + self.setup_ps
                - self.skew_ps + self.jitter_ps)

    def setup_slack_ps(self, clock_period_ps: float, propagation_ps: float) -> float:
        """Setup slack (positive = the data arrives in time)."""
        return clock_period_ps - self.required_period_ps(propagation_ps)

    def violates_setup(self, clock_period_ps: float, propagation_ps: float) -> bool:
        """True if the stage violates its setup condition at that period."""
        return self.setup_slack_ps(clock_period_ps, propagation_ps) < 0.0

#: Pulses narrower than this are absorbed by the clock distribution
#: network and never reach the registers (no premature capture edge).
DEFAULT_MIN_PULSE_WIDTH_PS = 500.0
#: Width at which the injected edge is as sharp as a regular clock edge.
DEFAULT_FULL_STRENGTH_WIDTH_PS = 1500.0
#: Effective-period penalty per ps of missing width below full strength:
#: a weak (slow-slewing) glitch edge reaches the registers late, which
#: behaves like a slightly longer capture period.
DEFAULT_NARROW_PULSE_SLOWDOWN = 0.5


@dataclass(frozen=True)
class GlitchPulse:
    """One clock-glitch pulse injected into the attacked round.

    The glitch generator of the attack platform inserts a premature
    rising edge ``offset_ps`` after the attacked round's launching edge,
    with a pulse width of ``width_ps``.  The behavioural model maps the
    pulse to the *effective capture period* the ciphertext register
    sees:

    * a pulse narrower than ``min_pulse_width_ps`` is filtered by the
      clock network — the round runs at the nominal period, no faults;
    * a full-strength pulse captures at ``offset_ps``;
    * in between, the degraded edge slew adds
      ``narrow_pulse_slowdown * (full_strength_width_ps - width_ps)``
      picoseconds to the effective period, so widening the pulse
      monotonically strengthens the attack.

    This is the (offset x width) half of the attack campaigns' glitch
    grid; the third axis is the nominal clock period itself.
    """

    offset_ps: float
    width_ps: float
    min_pulse_width_ps: float = DEFAULT_MIN_PULSE_WIDTH_PS
    full_strength_width_ps: float = DEFAULT_FULL_STRENGTH_WIDTH_PS
    narrow_pulse_slowdown: float = DEFAULT_NARROW_PULSE_SLOWDOWN

    def __post_init__(self) -> None:
        if self.offset_ps <= 0:
            raise ValueError("offset_ps must be positive")
        if self.width_ps <= 0:
            raise ValueError("width_ps must be positive")
        if self.min_pulse_width_ps < 0 or self.full_strength_width_ps < 0:
            raise ValueError("pulse-width thresholds must be non-negative")
        if self.min_pulse_width_ps > self.full_strength_width_ps:
            raise ValueError(
                "min_pulse_width_ps cannot exceed full_strength_width_ps"
            )
        if self.narrow_pulse_slowdown < 0:
            raise ValueError("narrow_pulse_slowdown must be non-negative")

    def propagates(self) -> bool:
        """True if the pulse survives the clock network at all."""
        return self.width_ps >= self.min_pulse_width_ps

    def effective_period_ps(self, nominal_period_ps: float) -> float:
        """Capture period of the attacked round under this pulse."""
        if nominal_period_ps <= 0:
            raise ValueError("nominal_period_ps must be positive")
        if not self.propagates():
            return nominal_period_ps
        degraded = self.offset_ps + self.narrow_pulse_slowdown * max(
            0.0, self.full_strength_width_ps - self.width_ps
        )
        # A glitch edge beyond the nominal period never wins the race
        # against the regular edge.
        return min(nominal_period_ps, degraded)


@dataclass(frozen=True)
class ClockGlitchGenerator:
    """Swept clock-glitch period sequence.

    Parameters
    ----------
    start_period_ps:
        Glitched clock period at step 0 (before any decrement).  The
        platform operator chooses it slightly above the design's nominal
        critical path so that the sweep crosses the interesting region.
    step_ps:
        Period decrement per step (35 ps in the paper).
    num_steps:
        Number of decrements performed (51 in the paper).
    """

    start_period_ps: float
    step_ps: float = DEFAULT_GLITCH_STEP_PS
    num_steps: int = DEFAULT_GLITCH_STEPS

    def __post_init__(self) -> None:
        if self.start_period_ps <= 0:
            raise ValueError("start_period_ps must be positive")
        if self.step_ps <= 0:
            raise ValueError("step_ps must be positive")
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if self.step_ps * self.num_steps >= self.start_period_ps:
            raise ValueError(
                "glitch sweep would reach a non-positive clock period"
            )

    def period_at_step(self, step: int) -> float:
        """Glitched period after ``step`` decrements (step 0 = no decrement)."""
        if not 0 <= step <= self.num_steps:
            raise ValueError(
                f"step must be in 0..{self.num_steps}, got {step}"
            )
        return self.start_period_ps - step * self.step_ps

    def periods(self) -> List[float]:
        """All glitched periods, from step 0 to ``num_steps``."""
        return [self.period_at_step(step) for step in range(self.num_steps + 1)]

    def __iter__(self) -> Iterator[float]:
        return iter(self.periods())

    @classmethod
    def calibrated(cls, worst_path_ps: float, budget: TimingBudget,
                   margin_steps: int = 5,
                   step_ps: float = DEFAULT_GLITCH_STEP_PS,
                   num_steps: int = DEFAULT_GLITCH_STEPS
                   ) -> "ClockGlitchGenerator":
        """Build a sweep whose start sits ``margin_steps`` above the worst path.

        This mirrors the manual calibration of the physical platform: the
        operator lowers the glitch period until the first faults appear,
        then sweeps the region below.
        """
        if margin_steps < 0:
            raise ValueError("margin_steps must be non-negative")
        start = budget.required_period_ps(worst_path_ps) + margin_steps * step_ps
        return cls(start_period_ps=start, step_ps=step_ps, num_steps=num_steps)
