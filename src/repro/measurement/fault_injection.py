"""Setup-violation fault model (clock-glitch fault injection).

Shortening the clock period of the attacked round below the arrival
time of a flip-flop's data input violates its setup condition (Eq. 1).
The flip-flop then either keeps its stale value or resolves to a random
value through metastability.  The paper exploits exactly this: the
glitched round produces *faulted ciphertexts*, and the step at which
each bit starts to fault is the per-bit path-delay estimate.

:class:`SetupViolationFaultModel` turns per-bit arrival times (from the
two-vector timing simulation) and a glitched clock period into a faulted
ciphertext, with a metastability window and stale/random resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..crypto.state import BLOCK_BITS, bits_to_bytes, bytes_to_bits
from .clock import TimingBudget

#: Width of the metastability window, in ps: when the slack magnitude is
#: within this window the capture is probabilistic rather than clean.
DEFAULT_METASTABILITY_WINDOW_PS = 40.0
#: Probability that a violated flip-flop keeps its stale (previous) value
#: rather than resolving to a random value.
DEFAULT_STALE_CAPTURE_PROBABILITY = 0.8


@dataclass
class SetupViolationFaultModel:
    """Behavioural model of setup violations at the ciphertext register.

    Parameters
    ----------
    budget:
        Register timing parameters (clk2q, setup, skew, jitter).
    metastability_window_ps:
        Transition band around the violation threshold in which capture
        becomes probabilistic.
    stale_capture_probability:
        Probability that a violated bit keeps its previous value instead
        of resolving randomly.
    """

    budget: TimingBudget = field(default_factory=TimingBudget)
    metastability_window_ps: float = DEFAULT_METASTABILITY_WINDOW_PS
    stale_capture_probability: float = DEFAULT_STALE_CAPTURE_PROBABILITY

    def __post_init__(self) -> None:
        if self.metastability_window_ps < 0:
            raise ValueError("metastability_window_ps must be non-negative")
        if not 0.0 <= self.stale_capture_probability <= 1.0:
            raise ValueError("stale_capture_probability must be in [0, 1]")

    # -- per-bit behaviour ------------------------------------------------------

    def violation_probability(self, arrival_ps: Optional[float],
                              clock_period_ps: float) -> float:
        """Probability that a bit with this arrival time is mis-captured.

        ``None`` (or NaN, the timing engine's marker) arrival means the
        bit did not toggle this cycle: its stale value equals its final
        value, so no observable violation.

        Zero slack is a setup violation: the model is a clean step
        function at ``slack <= 0`` whatever the metastability window, so
        a zero-width window degenerates to exactly that step instead of
        leaving the ``slack == 0`` boundary on the no-violation side.
        """
        if arrival_ps is None or math.isnan(arrival_ps):
            return 0.0
        slack = self.budget.setup_slack_ps(clock_period_ps, arrival_ps)
        if slack <= 0.0:
            return 1.0
        if slack >= self.metastability_window_ps:
            return 0.0
        return 1.0 - slack / self.metastability_window_ps

    def violation_probabilities(self, arrival_ps: np.ndarray,
                                clock_period_ps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`violation_probability` over arrival arrays.

        ``arrival_ps`` and ``clock_period_ps`` are broadcast together;
        NaN arrivals (bits that do not toggle) give probability 0, and
        the zero-window model is the same step function at
        ``slack <= 0`` as the scalar reference.  Every entry equals
        :meth:`violation_probability` of the matching scalars.
        """
        arrivals = np.asarray(arrival_ps, dtype=float)
        periods = np.asarray(clock_period_ps, dtype=float)
        required = (self.budget.clk2q_ps + arrivals + self.budget.setup_ps
                    - self.budget.skew_ps + self.budget.jitter_ps)
        slack = periods - required
        window = self.metastability_window_ps
        if window > 0:
            probability = np.clip(1.0 - slack / window, 0.0, 1.0)
        else:
            probability = (slack <= 0.0).astype(float)
        return np.where(np.isnan(arrivals), 0.0, probability)

    def capture_bit(self, correct_bit: int, stale_bit: int,
                    arrival_ps: Optional[float], clock_period_ps: float,
                    rng: np.random.Generator) -> int:
        """Value captured by one flip-flop at the glitched clock edge."""
        probability = self.violation_probability(arrival_ps, clock_period_ps)
        if probability <= 0.0 or rng.random() >= probability:
            return correct_bit
        if rng.random() < self.stale_capture_probability:
            return stale_bit
        return int(rng.integers(0, 2))

    # -- block-level behaviour ----------------------------------------------------

    def faulted_ciphertext(self, correct_ciphertext: Sequence[int],
                           stale_state: Sequence[int],
                           arrival_ps_per_bit: Sequence[Optional[float]],
                           clock_period_ps: float,
                           rng: np.random.Generator) -> bytes:
        """Ciphertext captured when the attacked round runs at ``clock_period_ps``.

        Parameters
        ----------
        correct_ciphertext:
            The ciphertext the round would produce with a safe clock.
        stale_state:
            The value the ciphertext register held before the glitched
            edge (the previous round's register content).
        arrival_ps_per_bit:
            Arrival time of each ciphertext bit (paper bit order), None
            for bits that do not toggle.
        """
        correct_bits = bytes_to_bits(correct_ciphertext)
        stale_bits = bytes_to_bits(stale_state)
        if len(arrival_ps_per_bit) != BLOCK_BITS:
            raise ValueError(
                f"expected {BLOCK_BITS} arrival times, got {len(arrival_ps_per_bit)}"
            )
        captured: List[int] = []
        for bit_index in range(BLOCK_BITS):
            captured.append(
                self.capture_bit(
                    correct_bits[bit_index],
                    stale_bits[bit_index],
                    arrival_ps_per_bit[bit_index],
                    clock_period_ps,
                    rng,
                )
            )
        return bits_to_bytes(captured)

    def faulted_bit_mask(self, correct_ciphertext: Sequence[int],
                         faulted_ciphertext: Sequence[int]) -> np.ndarray:
        """Boolean mask (paper bit order) of bits that differ from the correct value."""
        correct_bits = np.array(bytes_to_bits(correct_ciphertext), dtype=bool)
        observed_bits = np.array(bytes_to_bits(faulted_ciphertext), dtype=bool)
        return correct_bits ^ observed_bits

    # -- population-level behaviour ------------------------------------------------

    def faulted_bits_population(self, correct_bits: np.ndarray,
                                stale_bits: np.ndarray,
                                arrival_ps: np.ndarray,
                                clock_period_ps: np.ndarray,
                                rng: np.random.Generator) -> np.ndarray:
        """Captured bits of a whole faulted-encryption population, one pass.

        Vectorised capture model for glitch campaigns: every
        (grid point, stimulus, bit) of the population is resolved in a
        handful of array passes instead of one :meth:`capture_bit` call
        per bit.  The inputs broadcast together to a common
        ``(..., 128)`` shape (``clock_period_ps`` broadcasts against the
        leading axes — pass e.g. ``periods[:, None, None]`` to sweep a
        grid axis over stimuli); NaN arrivals mark bits that do not
        toggle and are therefore never observably faulted.

        The rng layout is fixed — three full-population draws, in order:
        a violation uniform, a stale-vs-random resolution uniform, and a
        uint8 random capture bit per entry.  The scalar
        :meth:`capture_bit` walk stays the behavioural specification
        (same per-bit law, but its conditional draws consume the stream
        in a different order).
        """
        correct = np.asarray(correct_bits, dtype=np.uint8)
        stale = np.asarray(stale_bits, dtype=np.uint8)
        probability = self.violation_probabilities(
            arrival_ps, np.asarray(clock_period_ps, dtype=float)[..., None]
        )
        shape = np.broadcast_shapes(correct.shape, stale.shape,
                                    probability.shape)
        if not shape or shape[-1] != BLOCK_BITS:
            raise ValueError(
                f"population shapes must broadcast to (..., {BLOCK_BITS}), "
                f"got {shape}"
            )
        violation_draw = rng.random(size=shape)
        resolution_draw = rng.random(size=shape)
        random_bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
        violated = violation_draw < probability
        resolved = np.where(resolution_draw < self.stale_capture_probability,
                            np.broadcast_to(stale, shape),
                            random_bits)
        return np.where(violated, resolved,
                        np.broadcast_to(correct, shape)).astype(np.uint8)

    def faulted_ciphertext_population(self, correct_ciphertexts: np.ndarray,
                                      stale_states: np.ndarray,
                                      arrival_ps: np.ndarray,
                                      clock_period_ps: np.ndarray,
                                      rng: np.random.Generator) -> np.ndarray:
        """Faulted ciphertext bytes of a whole population, one pass.

        Byte-level wrapper over :meth:`faulted_bits_population`:
        ``correct_ciphertexts`` and ``stale_states`` are ``(..., 16)``
        uint8 blocks, expanded to paper bit order (MSB of byte 0 first)
        with :func:`numpy.unpackbits`, captured through the vectorised
        kernel and packed back to ``(..., 16)`` uint8 ciphertexts.
        """
        correct = np.asarray(correct_ciphertexts, dtype=np.uint8)
        stale = np.asarray(stale_states, dtype=np.uint8)
        captured = self.faulted_bits_population(
            np.unpackbits(correct, axis=-1),
            np.unpackbits(stale, axis=-1),
            arrival_ps, clock_period_ps, rng,
        )
        return np.packbits(captured, axis=-1)
