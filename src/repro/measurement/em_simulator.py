"""Activity-driven EM trace simulation.

The EM emanation of a synchronous circuit is dominated by the current
pulses drawn on every clock edge; their amplitude tracks the switching
activity of that cycle.  The simulator therefore builds an averaged EM
trace of one AES encryption as follows:

1. the AES round trace gives the per-cycle register switching activity
   of the host (plus a factor for the combinational logic and the key
   schedule it drags along);
2. if the design is infected, the trojan's dormant activity (trigger
   tree and counter toggles, input-pin charging) is evaluated from its
   structural netlist — all cycles of an encryption in one pass of the
   compiled kernel (:mod:`repro.netlist.compiled`) — and added with its
   own probe coupling; this is the paper's "activity offset on a net
   used by the HT";
3. every cycle contributes a damped-oscillation pulse (probe and
   amplifier impulse response) scaled by its activity and by the die's
   EM gain (inter-die process variation);
4. the oscilloscope adds the residual averaged noise, a per-installation
   setup perturbation, and quantises.

The absolute units are arbitrary (calibrated so the trace spans roughly
the +/- 2e4 units of the paper's figures); every comparison the
detection metric performs is relative.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..crypto.batch import BatchedAES, switching_activity_counts
from .dut import DeviceUnderTest
from .em_probe import Amplifier, EMProbe, probe_impulse_response
from .noise import EMNoiseModel
from .oscilloscope import Oscilloscope

#: Weight of one register-bit toggle in activity units.
REGISTER_TOGGLE_WEIGHT = 1.0
#: Combinational activity dragged along per register toggle (SubBytes /
#: MixColumns avalanche plus the key-schedule datapath).
COMBINATIONAL_ACTIVITY_FACTOR = 3.0
#: Weight of a trojan input-pin toggle relative to a full output toggle.
TROJAN_PIN_TOGGLE_WEIGHT = 0.45
#: Per-cycle activity of one trojan cell's clock/config load.  Every slice
#: the trojan occupies adds clock-tree and configuration load that draws
#: current on every edge regardless of data; this is the component that
#: scales with trojan *size* and drives the HT1/HT2/HT3 detectability
#: ordering of Sec. V.
TROJAN_CLOCK_LOAD_PER_CELL = 0.09
#: Baseline activity present on every cycle (clock tree, control logic).
BASELINE_ACTIVITY = 40.0
#: Conversion from activity units to oscilloscope units before the
#: amplifier (calibrated so a full AES round peaks near 1.5e4 units
#: after the 30 dB amplifier).
ACTIVITY_TO_AMPLITUDE = 1.0
#: Relative die-to-die gain variation applied independently to every clock
#: cycle's emission.  The activity of different rounds maps onto different
#: regions of the die, so each die mis-matches the population mean by a
#: slightly different amount per cycle — this is what makes the |G_j - E(G)|
#: curves of Fig. 6 look jagged rather than like a scaled copy of the trace.
DIE_CYCLE_GAIN_JITTER = 0.03
#: Smallest grid (plaintexts x DUTs x samples values) whose columns are
#: filled on threads.  Below it, handing the GIL between threads costs
#: more than a second core saves: on 2 cores, the paper suite's grids (at
#: most 8 dies x 1 plaintext x 2,912 samples, about 23 k values) spent
#: about 48 ms in acquisition on threads against 38 ms serially.
_THREADED_GRID_FLOOR = 1 << 20


@dataclass
class EMAcquisitionConfig:
    """Static configuration of the EM acquisition bench.

    The activity-model weights are part of the configuration so that the
    ablation benchmarks (and users with different target technologies)
    can explore their influence without touching module constants.
    """

    clock_frequency_mhz: float = 24.0
    pre_trigger_cycles: int = 1
    post_trigger_cycles: int = 2
    probe: EMProbe = field(default_factory=EMProbe)
    amplifier: Amplifier = field(default_factory=Amplifier)
    oscilloscope: Oscilloscope = field(default_factory=Oscilloscope)
    noise: EMNoiseModel = field(default_factory=EMNoiseModel)
    quantise: bool = True
    register_toggle_weight: float = REGISTER_TOGGLE_WEIGHT
    combinational_activity_factor: float = COMBINATIONAL_ACTIVITY_FACTOR
    trojan_pin_toggle_weight: float = TROJAN_PIN_TOGGLE_WEIGHT
    trojan_clock_load_per_cell: float = TROJAN_CLOCK_LOAD_PER_CELL
    baseline_activity: float = BASELINE_ACTIVITY
    activity_to_amplitude: float = ACTIVITY_TO_AMPLITUDE
    die_cycle_gain_jitter: float = DIE_CYCLE_GAIN_JITTER

    def __post_init__(self) -> None:
        if self.clock_frequency_mhz <= 0:
            raise ValueError("clock_frequency_mhz must be positive")
        if self.pre_trigger_cycles < 0 or self.post_trigger_cycles < 0:
            raise ValueError("trigger padding cycles must be non-negative")
        if min(self.register_toggle_weight, self.combinational_activity_factor,
               self.trojan_pin_toggle_weight, self.trojan_clock_load_per_cell,
               self.baseline_activity, self.activity_to_amplitude,
               self.die_cycle_gain_jitter) < 0:
            raise ValueError("activity-model weights must be non-negative")

    @property
    def clock_period_ns(self) -> float:
        return 1000.0 / self.clock_frequency_mhz

    @property
    def samples_per_cycle(self) -> int:
        return self.oscilloscope.samples_for_duration_ns(self.clock_period_ns)

    def total_cycles(self, num_rounds: int) -> int:
        """Cycles in one acquisition: padding + load + ``num_rounds`` rounds."""
        return self.pre_trigger_cycles + 1 + num_rounds + self.post_trigger_cycles

    def total_samples(self, num_rounds: int) -> int:
        return self.total_cycles(num_rounds) * self.samples_per_cycle


@dataclass
class EMTrace:
    """One stored (averaged) EM trace and its acquisition context."""

    samples: np.ndarray
    label: str
    plaintext: bytes
    sample_period_ns: float
    cycle_sample_offsets: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.samples.size)

    def copy(self) -> "EMTrace":
        return EMTrace(
            samples=self.samples.copy(),
            label=self.label,
            plaintext=self.plaintext,
            sample_period_ns=self.sample_period_ns,
            cycle_sample_offsets=list(self.cycle_sample_offsets),
        )


class _GridPlan(NamedTuple):
    """What every column fill of one grid shares (see ``_grid_plan``)."""

    amplitudes: np.ndarray  # (plaintexts, duts, cycles) pulse amplitudes
    idle_amplitudes: np.ndarray  # (duts,) clock-tree pulse of idle cycles
    offsets: np.ndarray  # (duts,) output offsets after the amplifier
    cycle_offsets: List[int]
    idle_offsets: List[int]
    shape: Tuple[int, int, int]


def _available_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _column_chunks(rngs: Sequence[np.random.Generator],
                   grid_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` DUT-column ranges, one per thread.

    One range over every column unless each column has its own generator
    and the grid reaches ``_THREADED_GRID_FLOOR`` values; then one range
    per available core, at most one per column.
    """
    num_columns = len(rngs)
    threads = 1
    if (grid_size >= _THREADED_GRID_FLOOR
            and len({id(rng) for rng in rngs}) == num_columns):
        threads = min(_available_cores(), num_columns)
    bounds = [num_columns * index // threads for index in range(threads + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_column_chunks(work: Callable[[int, int], None],
                       chunks: Sequence[Tuple[int, int]]) -> None:
    """``work(lo, hi)`` for every chunk, the first on the calling thread.

    The others run on helper threads that are all joined before this
    returns, so none outlives the call (campaign supervisors fork their
    workers).  A helper's exception is re-raised here, the lowest chunk's
    first; one raised by the calling thread's chunk takes precedence.
    """
    errors: List[Optional[BaseException]] = [None] * len(chunks)

    def guarded(index: int) -> None:
        try:
            work(*chunks[index])
        except BaseException as error:  # re-raised in the caller
            errors[index] = error

    helpers: List[threading.Thread] = []
    try:
        for index in range(1, len(chunks)):
            helper = threading.Thread(target=guarded, args=(index,))
            helper.start()
            helpers.append(helper)
        work(*chunks[0])
    finally:
        for helper in helpers:
            helper.join()
    for error in errors:
        if error is not None:
            raise error


class EMSimulator:
    """EM trace generator for a DUT running AES encryptions."""

    def __init__(self, config: Optional[EMAcquisitionConfig] = None):
        self.config = config or EMAcquisitionConfig()
        self._kernel = probe_impulse_response(
            self.config.oscilloscope.sample_rate_gsps
        )

    # -- probe coupling and die gain -------------------------------------------

    def trojan_probe_coupling(self, dut: DeviceUnderTest) -> float:
        """Coupling between the trojan slices and the probe."""
        if dut.infected is None:
            return 0.0
        positions = list(dut.infected.aggressor_positions().values())
        if not positions:
            return 0.0
        centroid = (
            float(np.mean([p[0] for p in positions])),
            float(np.mean([p[1] for p in positions])),
        )
        return self.config.probe.coupling(centroid)

    def host_probe_coupling(self, dut: DeviceUnderTest) -> float:
        """Coupling between the AES block and the probe."""
        return self.config.probe.coupling(
            dut.golden.floorplan.aes_region.center
        )

    def die_cycle_gains(self, dut: DeviceUnderTest, num_cycles: int) -> np.ndarray:
        """Per-cycle EM gain of this die (frozen intra-die PV pattern).

        Each cycle's emission originates from a slightly different region
        of the die, so its die-to-die mismatch differs from cycle to
        cycle.  The realisation is drawn deterministically from the die's
        intra-die seed: re-measuring the same die always reproduces the
        same pattern (this is physical personality, not noise).
        """
        base = dut.em_gain()
        jitter_sigma = self.config.die_cycle_gain_jitter
        if dut.die is None or jitter_sigma == 0.0:
            return np.full(num_cycles, base)
        rng = np.random.default_rng(dut.die.intra_die_seed * 131 + 17)
        jitter = rng.normal(0.0, jitter_sigma, size=num_cycles)
        return base * (1.0 + jitter)

    # -- acquisition ---------------------------------------------------------------

    def _host_activity_matrix(self, round_states: np.ndarray) -> np.ndarray:
        """Per-cycle host activities of a stimulus batch, shape ``(P, C)``."""
        config = self.config
        toggles = switching_activity_counts(round_states)
        return (config.baseline_activity
                + config.register_toggle_weight * toggles
                * (1.0 + config.combinational_activity_factor))

    def _trojan_activity_matrix(self, dut: DeviceUnderTest,
                                round_states: np.ndarray) -> np.ndarray:
        """Per-cycle trojan activities of a stimulus batch, shape ``(P, C)``.

        Two components: the data-dependent toggles of the trigger logic,
        all encryptions' register states in one compiled-kernel
        evaluation (:meth:`~repro.trojan.base.HardwareTrojan.
        encryption_activity_counts`, encryption ``p`` at campaign
        position ``p``), and the size-proportional clock/configuration
        load of every trojan cell, present on every cycle.  Zeros for a
        clean design.
        """
        num_cycles = round_states.shape[1] - 1
        if dut.trojan is None:
            return np.zeros((round_states.shape[0], num_cycles))
        config = self.config
        output_toggles, pin_toggles = dut.trojan.encryption_activity_counts(
            round_states
        )
        clock_load = (config.trojan_clock_load_per_cell
                      * dut.trojan.cell_count())
        return clock_load + (output_toggles
                             + config.trojan_pin_toggle_weight * pin_toggles)

    def _grid_plan(self, duts: Sequence[DeviceUnderTest],
                   plaintexts: Sequence[bytes], key: bytes) -> "_GridPlan":
        """The shared prologue of a (plaintext x DUT) grid synthesis.

        The batched cipher prices every stimulus in one pass and each
        unique design's trojan activity comes from one compiled-kernel
        evaluation over all encryptions' register states (plaintext
        ``p`` is encryption ``p`` of the campaign, the sequential
        trojans' counter value).  What is left per column is the pulse
        fill of :meth:`_fill_noiseless`.
        """
        config = self.config
        plaintexts = [bytes(plaintext) for plaintext in plaintexts]
        num_plaintexts = len(plaintexts)
        num_duts = len(duts)
        if not num_duts or not num_plaintexts:
            raise ValueError("at least one DUT and one plaintext are required")

        round_states = BatchedAES(key).round_states(plaintexts)
        host_matrix = self._host_activity_matrix(round_states)
        num_cycles = host_matrix.shape[1]
        samples_per_cycle = config.samples_per_cycle

        # Per-design coupled activity, one compiled pass per unique design.
        coupled_by_design: Dict[int, Tuple[np.ndarray, float]] = {}
        coupled = np.empty((num_plaintexts, num_duts, num_cycles))
        host_couplings = np.empty(num_duts)
        for column, dut in enumerate(duts):
            design_key = id(dut.design)
            if design_key not in coupled_by_design:
                trojan_matrix = self._trojan_activity_matrix(dut, round_states)
                host_coupling = self.host_probe_coupling(dut)
                coupled_by_design[design_key] = (
                    host_coupling * host_matrix
                    + self.trojan_probe_coupling(dut) * trojan_matrix,
                    host_coupling,
                )
            coupled[:, column], host_couplings[column] = \
                coupled_by_design[design_key]

        gains = np.stack(
            [self.die_cycle_gains(dut, num_cycles) for dut in duts]
        )
        base_gains = np.array([dut.em_gain() for dut in duts])
        # Idle cycles still show the clock-tree baseline.
        idle_cycles = list(range(config.pre_trigger_cycles)) + [
            config.pre_trigger_cycles + num_cycles + cycle
            for cycle in range(config.post_trigger_cycles)
        ]
        return _GridPlan(
            amplitudes=(gains[None, :, :] * config.activity_to_amplitude
                        * coupled),
            idle_amplitudes=(base_gains * config.activity_to_amplitude
                             * host_couplings * config.baseline_activity),
            offsets=np.array([dut.em_offset() for dut in duts]),
            cycle_offsets=[(config.pre_trigger_cycles + cycle)
                           * samples_per_cycle
                           for cycle in range(num_cycles)],
            idle_offsets=[cycle * samples_per_cycle for cycle in idle_cycles],
            shape=(num_plaintexts, num_duts,
                   config.total_samples(num_cycles - 1)),
        )

    def _fill_noiseless(self, plan: "_GridPlan", signal: np.ndarray,
                        lo: int, hi: int) -> None:
        """Synthesise the emissions of DUT columns ``lo:hi`` into ``signal``.

        Every cycle's damped pulse, the idle cycles' baseline, the
        amplifier gain and the DUT's offset, each one broadcast
        operation over the ``(plaintexts, hi - lo, samples)`` view of a
        zeroed ``signal``.  Every operation is element-wise, so a column
        gets the same bytes whatever range it is filled in.
        """
        kernel = self._kernel
        total_samples = plan.shape[2]
        columns = signal[:, lo:hi]
        amplitudes = plan.amplitudes[:, lo:hi]
        pulse = np.empty(columns.shape[:2] + (kernel.size,))
        for cycle, offset in enumerate(plan.cycle_offsets):
            end = min(total_samples, offset + kernel.size)
            window = pulse[:, :, : end - offset]
            np.multiply(amplitudes[:, :, cycle, None],
                        kernel[None, None, : end - offset], out=window)
            columns[:, :, offset:end] += window
        idle_amplitudes = plan.idle_amplitudes[None, lo:hi, None]
        for offset in plan.idle_offsets:
            end = min(total_samples, offset + kernel.size)
            columns[:, :, offset:end] += (idle_amplitudes
                                          * kernel[None, None, : end - offset])
        columns *= self.config.amplifier.linear_gain
        columns += plan.offsets[None, lo:hi, None]

    def batch_noiseless_traces_many(self, duts: Sequence[DeviceUnderTest],
                                    plaintexts: Sequence[bytes], key: bytes
                                    ) -> "Tuple[np.ndarray, List[int]]":
        """Deterministic emissions of a whole (plaintext x DUT) grid.

        The prologue of :meth:`_grid_plan`, then one
        :meth:`_fill_noiseless` over every column of a
        ``(plaintexts, duts, samples)`` tensor.

        Returns ``(signal, cycle_sample_offsets)``.
        """
        plan = self._grid_plan(duts, plaintexts, key)
        signal = np.zeros(plan.shape)
        self._fill_noiseless(plan, signal, 0, plan.shape[1])
        return signal, plan.cycle_offsets

    def _acquire_grid(self, duts: Sequence[DeviceUnderTest],
                      plaintexts: Sequence[bytes], key: bytes,
                      rngs: Union[np.random.Generator,
                                  Sequence[np.random.Generator]],
                      new_setup_installation: bool
                      ) -> "Tuple[np.ndarray, List[int]]":
        """Noiseless grid plus the oscilloscope pass: the one acquisition core.

        Setup perturbation and averaged noise are drawn DUT-major /
        plaintext-minor (one generator per DUT, or one shared generator
        consumed in that order) as one block per DUT, and the noise and
        the quantisation are applied in place on the ``(P, D, S)``
        tensor.  Every public entry point calls this and none calls
        another, so a wrapper around any of them sees each acquisition
        exactly once.

        **Threads.** When every DUT has its own generator (distinct
        objects) and the grid holds at least ``_THREADED_GRID_FLOOR``
        values, the DUT columns are split into one contiguous chunk per
        available core (at most one per DUT); each chunk is synthesised,
        noised and quantised on its own thread, the calling thread
        running the first, and every helper is joined before this
        returns.  A column's draws still come from its own generator in
        plaintext order and every other operation is element-wise, so
        the tensor is byte-identical to the serial pass.  A shared or
        repeated generator, or a smaller grid, runs serially in
        DUT-major order.
        """
        rng_list = self._normalised_rngs(duts, rngs)
        config = self.config
        plan = self._grid_plan(duts, plaintexts, key)
        signal = np.zeros(plan.shape)
        sigma = config.oscilloscope.effective_noise_sigma(
            config.noise.sigma_single_shot
        )
        num_plaintexts, _, num_samples = plan.shape

        def acquire_columns(lo: int, hi: int) -> None:
            self._fill_noiseless(plan, signal, lo, hi)
            for column in range(lo, hi):
                gains, offsets, noise = config.noise.sample_acquisitions(
                    rng_list[column], num_plaintexts, num_samples, sigma,
                    new_setup_installation)
                traces = signal[:, column]
                if gains is not None:
                    traces *= gains[:, None]
                    traces += offsets[:, None]
                if noise is not None:
                    traces += noise
            if config.quantise:
                config.oscilloscope.quantise_in_place(
                    signal[:, lo:hi], lsb=config.oscilloscope.effective_lsb()
                )

        _run_column_chunks(acquire_columns,
                           _column_chunks(rng_list, signal.size))
        return signal, plan.cycle_offsets

    def _normalised_rngs(self, duts: Sequence[DeviceUnderTest],
                         rngs: Union[np.random.Generator,
                                     Sequence[np.random.Generator]]
                         ) -> Sequence[np.random.Generator]:
        if isinstance(rngs, np.random.Generator):
            return [rngs] * len(duts)
        rng_list = list(rngs)
        if len(rng_list) != len(duts):
            raise ValueError(
                f"got {len(rng_list)} generators for {len(duts)} DUTs"
            )
        return rng_list

    def acquire_many_batch_tensor(self, duts: Sequence[DeviceUnderTest],
                                  plaintexts: Sequence[bytes], key: bytes,
                                  rngs: Union[np.random.Generator,
                                              Sequence[np.random.Generator]],
                                  new_setup_installation: bool = False
                                  ) -> "Tuple[np.ndarray, List[int]]":
        """Acquire the (plaintext x DUT) grid as one ``(P, D, S)`` tensor.

        The entry point of every population acquisition; no
        :class:`EMTrace` objects are built.

        Parameters
        ----------
        rngs:
            Either one generator per DUT (each die keeps its own noise
            stream, consumed across the plaintexts in order) or a single
            shared generator consumed DUT-major / plaintext-minor.
            Distinct per-DUT generators let a grid of at least
            ``_THREADED_GRID_FLOOR`` values be filled in contiguous
            DUT-column chunks on one thread per core; every column
            still draws from its own generator in the same order, so
            the bytes do not depend on the thread count.  A shared or
            repeated generator is always consumed serially.
        new_setup_installation:
            Applied to every acquisition of the grid (the population
            campaigns re-install the setup for every trace).

        Returns ``(signal, cycle_sample_offsets)``.
        """
        return self._acquire_grid(duts, plaintexts, key, rngs,
                                  new_setup_installation)

    def acquire_batch_matrix(self, duts: Sequence[DeviceUnderTest],
                             plaintext: bytes, key: bytes,
                             rngs: Union[np.random.Generator,
                                         Sequence[np.random.Generator]],
                             new_setup_installation: bool = False
                             ) -> "Tuple[np.ndarray, List[int]]":
        """Acquire a whole population under one plaintext as a ``(duts, samples)`` matrix.

        The single-stimulus view of the acquisition grid.  ``rngs`` is
        one generator per DUT or one shared generator consumed in DUT
        order.  Returns ``(signal, cycle_sample_offsets)``.
        """
        signal, cycle_offsets = self._acquire_grid(
            duts, [plaintext], key, rngs, new_setup_installation
        )
        return signal[0], cycle_offsets

    def acquire(self, dut: DeviceUnderTest, plaintext: bytes, key: bytes,
                rng: np.random.Generator,
                new_setup_installation: bool = False) -> EMTrace:
        """Acquire one averaged trace as the oscilloscope would store it.

        The one-cell view of the acquisition grid (the same-die study and
        the Fig. 4/5 experiments).

        Parameters
        ----------
        new_setup_installation:
            When True, a fresh setup (probe repositioning, board
            reinstallation) gain/offset perturbation is drawn — this is
            the effect Fig. 5 demonstrates to be negligible after
            1 000-fold averaging.
        """
        signal, cycle_offsets = self._acquire_grid(
            [dut], [plaintext], key, rng, new_setup_installation
        )
        return EMTrace(
            samples=signal[0, 0],
            label=dut.label,
            plaintext=bytes(plaintext),
            sample_period_ns=1.0 / self.config.oscilloscope.sample_rate_gsps,
            cycle_sample_offsets=cycle_offsets,
        )
