"""Glitch-parameter grids and faulted-ciphertext sweep synthesis.

A fault-injection *attack campaign* sweeps the three knobs of the
clock-glitch generator — premature-edge **offset**, glitch pulse
**width** and nominal clock **period** — over a die population and
records the faulted ciphertexts every grid point produces.  The sweep
rides the same machinery as the detection campaigns: per-bit arrival
times from :meth:`~repro.measurement.delay_meter.PathDelayMeter.batch_arrival_times`,
register states from the batched AES kernel, and the whole
(grid x stimulus x bit) population resolved in one vectorised
:meth:`~repro.measurement.fault_injection.SetupViolationFaultModel.faulted_ciphertext_population`
pass.

:class:`GlitchGrid` is the declarative grid; faulted populations are
scored by :func:`fault_coverage` (the campaign engine's detection
metric — an infected die's altered path delays shift which grid points
fault) and fed to the DFA analyzer (:mod:`repro.analysis.dfa`) for key
recovery via :func:`recover_from_sweep`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis.dfa import (
    DEFAULT_MIN_EVIDENCE_BITS,
    DFAResult,
    recover_last_round_key,
)
from ..crypto.batch import as_block_matrix
from ..measurement.clock import (
    DEFAULT_FULL_STRENGTH_WIDTH_PS,
    DEFAULT_GLITCH_STEP_PS,
    DEFAULT_MIN_PULSE_WIDTH_PS,
    DEFAULT_NARROW_PULSE_SLOWDOWN,
    GlitchPulse,
    TimingBudget,
)
from ..measurement.fault_injection import SetupViolationFaultModel


@dataclass(frozen=True)
class GlitchGridPoint:
    """One (period, offset, width) point of a glitch grid."""

    index: int
    period_ps: float
    offset_ps: float
    width_ps: float
    effective_period_ps: float


@dataclass(frozen=True)
class GlitchGrid:
    """A (nominal period x glitch offset x pulse width) sweep grid.

    Points are ordered period-major, then offset, then width — the
    fixed ordering every consumer (population tensors, artifact
    payloads, reports) indexes by.  The physical behaviour of one point
    is :class:`~repro.measurement.clock.GlitchPulse`: the pulse maps to
    the *effective capture period* of the attacked round, which the
    setup-violation fault model turns into faulted ciphertext bits.
    """

    offsets_ps: Tuple[float, ...]
    widths_ps: Tuple[float, ...]
    periods_ps: Tuple[float, ...]
    min_pulse_width_ps: float = DEFAULT_MIN_PULSE_WIDTH_PS
    full_strength_width_ps: float = DEFAULT_FULL_STRENGTH_WIDTH_PS
    narrow_pulse_slowdown: float = DEFAULT_NARROW_PULSE_SLOWDOWN

    def __post_init__(self) -> None:
        object.__setattr__(self, "offsets_ps",
                           tuple(float(v) for v in self.offsets_ps))
        object.__setattr__(self, "widths_ps",
                           tuple(float(v) for v in self.widths_ps))
        object.__setattr__(self, "periods_ps",
                           tuple(float(v) for v in self.periods_ps))
        for name in ("offsets_ps", "widths_ps", "periods_ps"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if min(values) <= 0:
                raise ValueError(f"{name} must all be positive")

    @property
    def num_points(self) -> int:
        return (len(self.periods_ps) * len(self.offsets_ps)
                * len(self.widths_ps))

    def _pulse(self, offset_ps: float, width_ps: float) -> GlitchPulse:
        return GlitchPulse(
            offset_ps=offset_ps, width_ps=width_ps,
            min_pulse_width_ps=self.min_pulse_width_ps,
            full_strength_width_ps=self.full_strength_width_ps,
            narrow_pulse_slowdown=self.narrow_pulse_slowdown,
        )

    def points(self) -> List[GlitchGridPoint]:
        """The ordered grid points with their effective capture periods."""
        points: List[GlitchGridPoint] = []
        for period, offset, width in itertools.product(
                self.periods_ps, self.offsets_ps, self.widths_ps):
            points.append(GlitchGridPoint(
                index=len(points),
                period_ps=period,
                offset_ps=offset,
                width_ps=width,
                effective_period_ps=self._pulse(offset, width)
                .effective_period_ps(period),
            ))
        return points

    def effective_periods(self) -> np.ndarray:
        """Effective capture period per grid point, shape ``(num_points,)``."""
        return np.array([point.effective_period_ps
                         for point in self.points()])

    @classmethod
    def calibrated(cls, worst_arrival_ps: float, budget: TimingBudget,
                   num_offsets: int = 4,
                   offset_step_ps: float = DEFAULT_GLITCH_STEP_PS,
                   margin_steps: int = 5,
                   deep_fraction: float = 0.35) -> "GlitchGrid":
        """Centre a default grid on a device's worst observed path.

        Mirrors the physical calibration of the delay sweeps
        (:meth:`~repro.measurement.clock.ClockGlitchGenerator.calibrated`):
        the critical period comes from the timing budget and the nominal
        period sits ``margin_steps`` glitch steps safely above it.  The
        offsets span the whole fault-depth range — from one glitch step
        below the critical period (only the slowest paths fault; the
        regime where an infected die separates from a clean one) down to
        ``deep_fraction`` of it (most sensitised paths fault; the regime
        that feeds the DFA analyzer dense fault populations) — and the
        width axis spans filtered / degraded / full-strength pulses.
        """
        if worst_arrival_ps <= 0:
            raise ValueError("worst_arrival_ps must be positive")
        if num_offsets < 1:
            raise ValueError("num_offsets must be >= 1")
        if offset_step_ps <= 0:
            raise ValueError("offset_step_ps must be positive")
        if margin_steps < 1:
            raise ValueError("margin_steps must be >= 1")
        if not 0.0 < deep_fraction < 1.0:
            raise ValueError("deep_fraction must be in (0, 1)")
        critical = budget.required_period_ps(worst_arrival_ps)
        shallowest = critical - offset_step_ps
        deepest = deep_fraction * critical
        if deepest >= shallowest:
            raise ValueError(
                "calibrated offset range is empty; a smaller deep_fraction "
                "or offset step is needed"
            )
        offsets = tuple(np.linspace(deepest, shallowest, num_offsets))
        widths = (
            DEFAULT_MIN_PULSE_WIDTH_PS / 2.0,  # filtered: no faults
            (DEFAULT_MIN_PULSE_WIDTH_PS + DEFAULT_FULL_STRENGTH_WIDTH_PS)
            / 2.0,                             # degraded edge
            DEFAULT_FULL_STRENGTH_WIDTH_PS,    # full-strength capture
        )
        return cls(
            offsets_ps=offsets,
            widths_ps=widths,
            periods_ps=(critical + margin_steps * offset_step_ps,),
        )


def synthesise_faulted_sweep(fault_model: SetupViolationFaultModel,
                             grid: GlitchGrid,
                             correct_ciphertexts: np.ndarray,
                             stale_states: np.ndarray,
                             arrival_ps: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """Faulted ciphertexts of one device over a whole glitch grid.

    One vectorised pass: the grid's ``(G,)`` effective capture periods
    broadcast against the device's ``(N, 128)`` per-bit arrival times
    and the ``(N, 16)`` correct/stale register states, producing the
    ``(G, N, 16)`` faulted-ciphertext tensor of the sweep (grid-point
    order of :meth:`GlitchGrid.points`).  The rng layout is the fixed
    three-draw stream of
    :meth:`~repro.measurement.fault_injection.SetupViolationFaultModel.faulted_bits_population`,
    whose serial reference pins the per-bit capture law.
    """
    correct = as_block_matrix(correct_ciphertexts, "correct_ciphertexts")
    stale = as_block_matrix(stale_states, "stale_states")
    return fault_model.faulted_ciphertext_population(
        correct, stale, np.asarray(arrival_ps, dtype=float),
        grid.effective_periods()[:, None], rng,
    )


def device_fault_coverages(correct_ciphertexts: np.ndarray,
                           faulted_ciphertexts: np.ndarray) -> np.ndarray:
    """Per-device fault coverage of a ``(D, G, N, 16)`` sweep tensor.

    One array pass over the whole population; entry ``d`` is the
    fraction of (grid point, stimulus) captures of device ``d``'s
    ``(G, N, 16)`` plane with at least one faulted byte — the campaign
    engine's genuine/infected score populations.
    """
    correct = np.asarray(correct_ciphertexts, dtype=np.uint8)
    faulted = np.asarray(faulted_ciphertexts, dtype=np.uint8)
    if faulted.ndim < 3:
        raise ValueError(
            f"expected a (devices, ..., 16) sweep tensor, got {faulted.shape}"
        )
    any_fault = np.any(faulted != correct, axis=-1)
    return any_fault.reshape(any_fault.shape[0], -1).mean(axis=1)


def recover_from_sweep(correct_ciphertexts: np.ndarray,
                       faulted_ciphertexts: np.ndarray,
                       min_evidence_bits: int = DEFAULT_MIN_EVIDENCE_BITS
                       ) -> DFAResult:
    """Run the DFA analyzer over a whole sweep tensor.

    ``faulted_ciphertexts`` is ``(..., N, 16)`` — any leading axes
    (grid points, dies, both) are flattened into one fault population
    against the matching ``(N, 16)`` correct ciphertexts.  Fault-free
    captures are dropped before scoring: they carry no differential and
    only cost kernel time.
    """
    correct = as_block_matrix(correct_ciphertexts, "correct_ciphertexts")
    faulted = np.asarray(faulted_ciphertexts, dtype=np.uint8)
    if faulted.shape[-2:] != correct.shape:
        raise ValueError(
            f"sweep tensor {faulted.shape} does not end in the correct-"
            f"ciphertext shape {correct.shape}"
        )
    flat_faulted = faulted.reshape(-1, correct.shape[-1])
    flat_correct = np.broadcast_to(
        correct, faulted.shape).reshape(flat_faulted.shape)
    mask_rows = np.any(flat_faulted != flat_correct, axis=-1)
    return recover_last_round_key(flat_correct[mask_rows],
                                  flat_faulted[mask_rows],
                                  min_evidence_bits=min_evidence_bits)
