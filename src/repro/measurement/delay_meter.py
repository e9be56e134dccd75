"""Per-bit path-delay measurement by iterative clock glitching.

This is the measurement procedure of Sec. III-B of the paper:

1. pick a (plaintext, key) pair, run the AES and glitch the clock of the
   10th round;
2. decrease the glitched period in 35 ps steps (51 steps) and record,
   for every ciphertext bit, the number of decrements after which the
   bit starts to be faulted;
3. repeat each measurement 10 times to average the noise term ``dM_r``;
4. repeat over many (plaintext, key) pairs — the sensitised paths depend
   on the data, so each pair samples a different set of bits.

The resulting matrix of "steps to fault" per (pair, repetition, bit) is
the raw material both the golden-model fingerprint and the comparison of
Fig. 3 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..crypto.batch import (
    as_block_matrix,
    expand_keys,
    round_states_with_keys,
)
from ..crypto.state import BLOCK_BITS
from .clock import ClockGlitchGenerator, TimingBudget
from .dut import DeviceUnderTest
from .fault_injection import SetupViolationFaultModel
from .noise import DelayNoiseModel


@dataclass(frozen=True)
class PlaintextKeyPair:
    """One (plaintext, key) stimulus of the delay campaign."""

    index: int
    plaintext: bytes
    key: bytes

    def __post_init__(self) -> None:
        if len(self.plaintext) != 16:
            raise ValueError("plaintext must be 16 bytes")
        if len(self.key) not in (16, 24, 32):
            raise ValueError("key must be 16, 24 or 32 bytes")


def generate_pk_pairs(count: int, seed: int = 0,
                      fixed_key: Optional[bytes] = None) -> List[PlaintextKeyPair]:
    """Generate the random (plaintext, key) pairs of the campaign.

    The paper draws 10 000 random pairs and reports results for 50 of
    them; pass ``fixed_key`` to emulate a campaign where only the
    plaintext varies.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    pairs: List[PlaintextKeyPair] = []
    for index in range(count):
        plaintext = bytes(int(x) for x in rng.integers(0, 256, size=16))
        key = fixed_key if fixed_key is not None else bytes(
            int(x) for x in rng.integers(0, 256, size=16)
        )
        pairs.append(PlaintextKeyPair(index=index, plaintext=plaintext, key=key))
    return pairs


@dataclass
class DelayMeasurementConfig:
    """Configuration of one delay-measurement campaign."""

    repetitions: int = 10
    glitch_step_ps: float = 35.0
    num_glitch_steps: int = 51
    calibration_margin_steps: int = 5
    attacked_round: int = 10
    noise: DelayNoiseModel = field(default_factory=DelayNoiseModel)
    budget: TimingBudget = field(default_factory=TimingBudget)
    fault_model: SetupViolationFaultModel = field(
        default_factory=SetupViolationFaultModel
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        if self.num_glitch_steps <= 0:
            raise ValueError("num_glitch_steps must be positive")
        if self.glitch_step_ps <= 0:
            raise ValueError("glitch_step_ps must be positive")
        # Keep the fault model and the sweep consistent with the shared budget.
        self.fault_model = SetupViolationFaultModel(
            budget=self.budget,
            metastability_window_ps=self.fault_model.metastability_window_ps,
            stale_capture_probability=self.fault_model.stale_capture_probability,
        )


@dataclass
class PairMeasurement:
    """Delay measurement for one (plaintext, key) pair on one DUT.

    ``steps_to_fault`` has shape ``(repetitions, 128)``; the value
    ``num_glitch_steps + 1`` flags bits never faulted within the sweep
    (either their path is short or they did not toggle for this pair).
    ``arrival_ps`` holds the noiseless per-bit arrival times (NaN for
    bits that do not toggle); it is kept for diagnostics and tests.
    ``glitch`` is the sweep used for this pair (the platform re-centres
    the sweep per stimulus so every pair's paths fall inside the window;
    step counts are only ever compared between devices for the same pair
    and the same sweep).
    """

    pair: PlaintextKeyPair
    steps_to_fault: np.ndarray
    arrival_ps: np.ndarray
    glitch: Optional[ClockGlitchGenerator] = None

    def mean_steps(self) -> np.ndarray:
        """Mean steps-to-fault over repetitions, per bit (shape (128,))."""
        return self.steps_to_fault.mean(axis=0)

    def observable_bits(self) -> np.ndarray:
        """Paper-bit indices that toggled (and can therefore be measured)."""
        return np.flatnonzero(~np.isnan(self.arrival_ps))


@dataclass
class DelayMeasurement:
    """Full delay campaign result for one DUT."""

    label: str
    glitch: ClockGlitchGenerator
    config: DelayMeasurementConfig
    pairs: List[PairMeasurement] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def steps_matrix(self) -> np.ndarray:
        """Steps-to-fault, shape ``(num_pairs, repetitions, 128)``."""
        return np.stack([p.steps_to_fault for p in self.pairs], axis=0)

    def mean_steps(self) -> np.ndarray:
        """Mean steps-to-fault over repetitions, shape ``(num_pairs, 128)``."""
        return np.stack([p.mean_steps() for p in self.pairs], axis=0)

    def mean_delay_ps(self) -> np.ndarray:
        """Mean steps converted to picoseconds (steps x glitch step)."""
        return self.mean_steps() * self.config.glitch_step_ps

    def repetition_std_ps(self) -> np.ndarray:
        """Per-(pair, bit) standard deviation across repetitions, in ps."""
        return self.steps_matrix().std(axis=1, ddof=0) * self.config.glitch_step_ps


class PathDelayMeter:
    """The clock-glitch delay measurement instrument."""

    def __init__(self, config: Optional[DelayMeasurementConfig] = None):
        self.config = config or DelayMeasurementConfig()

    # -- timing helpers ---------------------------------------------------------

    def pair_transitions_batch(self, dut: DeviceUnderTest,
                               pairs: Sequence[PlaintextKeyPair]
                               ) -> "List[Tuple[Dict[str, int], Dict[str, int]]]":
        """Attacked-round input vectors of *all* pairs in one cipher pass.

        The stimulus only depends on the pair and the host circuit — not
        on the die or the inserted trojan — so campaigns compute it once
        and share it across every device under test.  The register
        states of every (P, K) stimulus come from the batched AES kernel
        (:mod:`repro.crypto.batch`, one array pass per round with
        per-pair round keys); each entry is bit-identical to the scalar
        ``encrypt_trace`` walk of the serial reference.
        """
        if not pairs:
            return []
        attacked = self.config.attacked_round
        round_keys = expand_keys([pair.key for pair in pairs])
        states = round_states_with_keys(
            as_block_matrix([pair.plaintext for pair in pairs]), round_keys
        )
        num_rounds = states.shape[1] - 2
        if not 2 <= attacked <= num_rounds:
            raise ValueError(
                f"attacked_round must be in 2..{num_rounds}, got {attacked}"
            )
        circuit = dut.circuit
        # Row r of the state tensor is the register content *entering*
        # round r (row 0 = plaintext, row 1 = state after AddRoundKey 0).
        return [
            (
                circuit.input_values(bytes(states[row, attacked - 1]),
                                     bytes(round_keys[row, attacked - 1])),
                circuit.input_values(bytes(states[row, attacked]),
                                     bytes(round_keys[row, attacked])),
            )
            for row in range(len(pairs))
        ]

    def arrival_times_ps(self, dut: DeviceUnderTest,
                         pair: PlaintextKeyPair) -> np.ndarray:
        """Noiseless per-bit arrival times for one (P, K) pair.

        The attacked round's input transition is derived from the AES
        round trace: the state register switches from the round-9 input
        to the round-10 input, and the round-key input from key 9 to
        key 10.  Bits whose flip-flop D input does not toggle get NaN.
        One-cell view of :meth:`batch_arrival_times`.
        """
        return self.batch_arrival_times([dut], [pair])[0, 0]

    # -- calibration ----------------------------------------------------------------

    def calibrate_glitch(self, dut: DeviceUnderTest,
                         pairs: Sequence[PlaintextKeyPair]
                         ) -> ClockGlitchGenerator:
        """Choose one glitch sweep covering the DUT's worst observed path.

        The physical platform is calibrated on the golden model; the same
        sweep is then reused for every device under test so that step
        counts are directly comparable.
        """
        if not pairs:
            raise ValueError("at least one pair is required for calibration")
        return self._calibrated_glitch(
            self._worst_arrival(self.batch_arrival_times([dut], pairs))
        )

    def _calibrated_glitch(self, worst_path_ps: float) -> ClockGlitchGenerator:
        """The sweep this meter's configuration centres on a worst path."""
        return ClockGlitchGenerator.calibrated(
            worst_path_ps=worst_path_ps,
            budget=self.config.budget,
            margin_steps=self.config.calibration_margin_steps,
            step_ps=self.config.glitch_step_ps,
            num_steps=self.config.num_glitch_steps,
        )

    def calibrate_glitches(self, dut: DeviceUnderTest,
                           pairs: Sequence[PlaintextKeyPair]
                           ) -> Dict[int, ClockGlitchGenerator]:
        """Per-pair glitch sweeps (keyed by ``pair.index``).

        The sensitised paths depend strongly on the processed data, so a
        single 51-step window cannot always cover every pair's region of
        interest.  The operator therefore re-centres the sweep for each
        (P, K) stimulus on the golden model; the same per-pair sweeps are
        reused for every device under test, which keeps the per-pair step
        counts comparable between devices (the only comparison Eq. (4)
        performs).
        """
        if not pairs:
            raise ValueError("at least one pair is required for calibration")
        return self._per_pair_glitches(
            pairs, self.batch_arrival_times([dut], pairs)[0]
        )

    def _per_pair_glitches(self, pairs: Sequence[PlaintextKeyPair],
                           arrivals: np.ndarray
                           ) -> Dict[int, ClockGlitchGenerator]:
        """One sweep per pair from a ``(num_pairs, 128)`` arrival matrix."""
        return {
            pair.index: self._calibrated_glitch(
                self._worst_arrival(arrivals[pair_pos]))
            for pair_pos, pair in enumerate(pairs)
        }

    # -- measurement -----------------------------------------------------------------

    def _pair_measurement(self, pair: PlaintextKeyPair, arrivals: np.ndarray,
                          glitch: ClockGlitchGenerator,
                          rng: np.random.Generator) -> PairMeasurement:
        """Sample the steps-to-fault matrix from precomputed arrival times.

        The sweep is vectorised: the per-bit capture behaviour is the
        one of
        :class:`~repro.measurement.fault_injection.SetupViolationFaultModel`
        (violation probability ramping over the metastability window,
        stale or random resolution), evaluated for every (repetition,
        bit, step) at once.
        """
        config = self.config
        fault_model = config.fault_model
        periods = np.asarray(glitch.periods())  # (S+1,)
        repetitions = config.repetitions

        noise = config.noise.sample(rng, size=(repetitions, BLOCK_BITS))
        noisy_arrivals = arrivals[None, :] + noise  # (R, 128)
        # One shared violation law (step at slack <= 0, ramp over the
        # metastability window, NaN = stable bit) for the whole
        # (repetition, bit, step) grid.
        probability = fault_model.violation_probabilities(
            noisy_arrivals[:, :, None], periods[None, None, :]
        )  # (R, 128, S+1)
        violated = rng.random(probability.shape) < probability
        # A violated capture is observable unless metastability happens to
        # resolve to the correct value: stale capture (always wrong for a
        # toggling bit) or a random value that is wrong half the time.
        observable_probability = (fault_model.stale_capture_probability
                                  + 0.5 * (1.0 - fault_model.stale_capture_probability))
        observed = violated & (rng.random(violated.shape) < observable_probability)

        never = glitch.num_steps + 1
        any_fault = observed.any(axis=2)
        first_fault = np.where(any_fault, observed.argmax(axis=2), never)
        steps_to_fault = first_fault.astype(float)

        return PairMeasurement(pair=pair, steps_to_fault=steps_to_fault,
                               arrival_ps=arrivals, glitch=glitch)

    def measure(self, dut: DeviceUnderTest, pairs: Sequence[PlaintextKeyPair],
                glitch=None, seed: Optional[int] = None) -> DelayMeasurement:
        """Run the full campaign (all pairs, all repetitions) on one DUT.

        ``glitch`` may be a single :class:`ClockGlitchGenerator`, a mapping
        from ``pair.index`` to per-pair generators (see
        :meth:`calibrate_glitches`), or None to calibrate per pair on this
        DUT.  One-DUT view of :meth:`measure_batch`.
        """
        seeds = None if seed is None else [seed]
        return self.measure_batch([dut], pairs, glitch, seeds=seeds)[0]

    def batch_arrival_times(self, duts: Sequence[DeviceUnderTest],
                            pairs: Sequence[PlaintextKeyPair]) -> np.ndarray:
        """Noiseless arrival times for every (DUT, pair) in array passes.

        The host circuit is lowered once
        (:meth:`~repro.netlist.netlist.Netlist.compiled`) and a
        :class:`~repro.netlist.compiled.CompiledTimingEngine` sweeps all
        pairs and all dies of each circuit group together — per-die
        delay vectors broadcast over the pair axis, so the whole
        (pairs x dies) grid costs one levelised sweep.  Every entry is
        bit-identical to the interpreted per-cell timing walk for that
        (DUT, pair).

        Returns shape ``(num_duts, num_pairs, 128)`` (NaN = stable bit).
        """
        from ..netlist.compiled import CompiledTimingEngine

        arrivals = np.full((len(duts), len(pairs), BLOCK_BITS), np.nan)
        groups: Dict[int, List[int]] = {}
        for dut_index, dut in enumerate(duts):
            groups.setdefault(id(dut.circuit), []).append(dut_index)
        for dut_indices in groups.values():
            circuit = duts[dut_indices[0]].circuit
            netlist = circuit.netlist
            input_nets = list(netlist.inputs)
            before_rows = np.empty((len(pairs), len(input_nets)),
                                   dtype=np.uint8)
            after_rows = np.empty_like(before_rows)
            # All pairs' attacked-round stimuli from one batched-cipher
            # pass rather than one scalar encrypt_trace per pair.
            transitions = self.pair_transitions_batch(duts[dut_indices[0]],
                                                      pairs)
            for row, (before, after) in enumerate(transitions):
                before_rows[row] = [before[net] for net in input_nets]
                after_rows[row] = [after[net] for net in input_nets]
            engine = CompiledTimingEngine(
                netlist.compiled(),
                [duts[dut_index].delay_annotation()
                 for dut_index in dut_indices],
                input_arrival_ps=0.0,
            )
            # Chunk the pair axis so the (pairs x dies x nets) float64
            # arrival array stays bounded (~256 MB) however many
            # stimuli the campaign sweeps; chunking does not change any
            # value — pairs are independent.
            max_elements = 32_000_000
            per_pair = len(dut_indices) * (netlist.compiled().num_nets + 1)
            chunk = max(1, max_elements // per_pair)
            for begin in range(0, len(pairs), chunk):
                stop = begin + chunk
                _, _, net_arrivals = engine.two_vector_arrivals(
                    before_rows[begin:stop], after_rows[begin:stop],
                    input_nets,
                )
                endpoint = engine.endpoint_arrivals(net_arrivals,
                                                    circuit.output_d_nets())
                arrivals[dut_indices, begin:stop] = endpoint.transpose(1, 0, 2)
        return arrivals

    def measure_batch(self, duts: Sequence[DeviceUnderTest],
                      pairs: Sequence[PlaintextKeyPair],
                      glitch=None,
                      seeds: Optional[Sequence[int]] = None
                      ) -> List[DelayMeasurement]:
        """Run the campaign on many DUTs through the compiled kernel.

        The attacked-round input vectors of every (P, K) pair depend
        only on the host circuit, so they are computed once and shared;
        the per-bit arrival times of the whole (DUT x pair) grid come
        from one :meth:`batch_arrival_times` sweep instead of a per-cell
        Python walk per (DUT, pair).  ``seeds[i]`` seeds DUT ``i``'s
        noise stream (default: the configured seed for every DUT); the
        result is bit-identical to a serial per-DUT measurement with the
        same seed.
        """
        if not pairs:
            raise ValueError("the campaign needs at least one (P, K) pair")
        if seeds is not None and len(seeds) != len(duts):
            raise ValueError(f"got {len(seeds)} seeds for {len(duts)} DUTs")
        arrival_grid = self.batch_arrival_times(duts, pairs)

        measurements: List[DelayMeasurement] = []
        for dut_index, dut in enumerate(duts):
            arrivals = {
                pair.index: arrival_grid[dut_index, pair_pos]
                for pair_pos, pair in enumerate(pairs)
            }
            dut_glitch = glitch
            if dut_glitch is None:
                # Same per-pair calibration as calibrate_glitches, with
                # the already-computed arrivals reused.
                dut_glitch = self._per_pair_glitches(pairs,
                                                     arrival_grid[dut_index])
            seed = self.config.seed if seeds is None else seeds[dut_index]
            rng = np.random.default_rng(seed)
            first_glitch = (dut_glitch
                            if isinstance(dut_glitch, ClockGlitchGenerator)
                            else dut_glitch[pairs[0].index])
            measurement = DelayMeasurement(label=dut.label, glitch=first_glitch,
                                           config=self.config)
            for pair in pairs:
                pair_glitch = (dut_glitch
                               if isinstance(dut_glitch, ClockGlitchGenerator)
                               else dut_glitch[pair.index])
                measurement.pairs.append(
                    self._pair_measurement(pair, arrivals[pair.index],
                                           pair_glitch, rng)
                )
            measurements.append(measurement)
        return measurements

    @staticmethod
    def _worst_arrival(arrivals: np.ndarray) -> float:
        """Worst observable path over an arrival array (NaN = stable)."""
        finite = arrivals[~np.isnan(arrivals)]
        if not finite.size or float(finite.max()) <= 0.0:
            raise ValueError("no observable path found during calibration")
        return float(finite.max())

    # -- staircase (Fig. 2) --------------------------------------------------------------

    def fault_staircase(self, dut: DeviceUnderTest, pair: PlaintextKeyPair,
                        glitch: ClockGlitchGenerator,
                        seed: int = 0) -> Dict[int, int]:
        """Number of faulted bits at every glitch step (the Fig. 2 staircase).

        Uses the explicit faulted-ciphertext path of the fault-injection
        model: for every step the glitched round is "run" once and the
        faulted ciphertext compared against the correct one.  The
        stale and correct capture values come from the batched AES
        kernel, the per-bit arrivals from :meth:`arrival_times_ps`.
        """
        rng = np.random.default_rng(seed)
        attacked = self.config.attacked_round
        round_keys = expand_keys(pair.key)
        states = round_states_with_keys(
            as_block_matrix([pair.plaintext]), round_keys
        )
        num_rounds = states.shape[1] - 2
        if not 2 <= attacked <= num_rounds:
            raise ValueError(
                f"attacked_round must be in 2..{num_rounds}, got {attacked}"
            )
        # NaN marks a stable bit, which the fault model never faults.
        arrivals = self.arrival_times_ps(dut, pair).tolist()

        correct = bytes(states[0, attacked + 1])
        stale = bytes(states[0, attacked])
        staircase: Dict[int, int] = {}
        for step, period in enumerate(glitch.periods()):
            faulted = self.config.fault_model.faulted_ciphertext(
                correct, stale, arrivals, period, rng
            )
            mask = self.config.fault_model.faulted_bit_mask(correct, faulted)
            staircase[step] = int(mask.sum())
        return staircase
