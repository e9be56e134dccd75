"""End-to-end detection platform.

:class:`HTDetectionPlatform` wires every substrate together — golden
design, trojan catalog, die population, delay meter and EM bench — and
exposes the campaigns the paper runs:

* :meth:`run_delay_study` — Sec. III: delay fingerprint on the golden
  model, comparison of clean and infected devices over (P, K) pairs;
* :meth:`run_same_die_em_study` — Sec. IV: averaged-trace comparison of
  a genuine and an infected design on the same die;
* :meth:`acquire_population_tensors` — Sec. V: one averaged trace per
  (design, die) of a die population, as matrices.

The Sec. V study itself (scoring, Eq. (5) false-negative rates, the
store read-through) is
:meth:`repro.campaigns.engine.CampaignEngine.population_study`; the
experiment drivers (:mod:`repro.experiments`) are thin wrappers over
this class and that engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..fpga.design import GoldenDesign
from ..fpga.device import FPGADevice, virtex5_lx30
from ..stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT
from ..measurement.delay_meter import (
    DelayMeasurement,
    DelayMeasurementConfig,
    PathDelayMeter,
    PlaintextKeyPair,
    generate_pk_pairs,
)
from ..measurement.dut import DeviceUnderTest
from ..measurement.em_simulator import EMAcquisitionConfig, EMSimulator, EMTrace
from ..store.artifacts import pack_groups, unpack_groups
from ..trojan.insertion import InfectedDesign, insert_trojan
from ..trojan.library import build_trojan
from ..variation.inter_die import DiePopulation, DieProfile
from .delay_detector import DelayComparisonResult, DelayDetector
from .em_detector import (
    PopulationCharacterisation,
    SameDieComparison,
    SameDieEMDetector,
)
from .fingerprint import DelayFingerprint, EMReference


@dataclass
class PlatformConfig:
    """Configuration of the whole detection platform."""

    num_dies: int = 8
    seed: int = 2015
    delay: DelayMeasurementConfig = field(default_factory=DelayMeasurementConfig)
    em: EMAcquisitionConfig = field(default_factory=EMAcquisitionConfig)

    def __post_init__(self) -> None:
        if self.num_dies <= 0:
            raise ValueError("num_dies must be positive")


@dataclass
class DelayStudyResult:
    """Output of the Sec. III delay campaign."""

    fingerprint: DelayFingerprint
    measurements: Dict[str, DelayMeasurement]
    comparisons: Dict[str, DelayComparisonResult]
    pairs: List[PlaintextKeyPair]

    def labels(self) -> List[str]:
        return list(self.comparisons)


@dataclass
class SameDieEMStudyResult:
    """Output of the Sec. IV same-die EM comparison."""

    reference: EMReference
    golden_traces: List[EMTrace]
    comparisons: Dict[str, SameDieComparison]
    infected_traces: Dict[str, EMTrace]


@dataclass
class PopulationEMStudyResult:
    """Output of the Sec. V inter-die EM study.

    ``tensors`` is the scored population, matrix-resident; its
    :meth:`~PopulationTraceTensors.to_traces` builds :class:`EMTrace`
    objects where a trace is printed or archived.
    """

    reference: EMReference
    tensors: PopulationTraceTensors
    characterisations: Dict[str, PopulationCharacterisation]
    trojan_area_fractions: Dict[str, float]

    def false_negative_rates(self) -> Dict[str, float]:
        """Per-trojan false-negative rates (the headline table)."""
        return {name: char.false_negative_rate
                for name, char in self.characterisations.items()}


@dataclass
class PopulationTraceTensors:
    """Matrix-resident population traces (one row per die, per design).

    The tensor form the batched acquisition produces and the batched
    scoring consumes: ``golden`` and each ``infected[name]`` are
    ``(num_dies, num_samples)`` float matrices, stored as they are by
    :meth:`to_arrays`.  :class:`EMTrace` objects exist only at the
    report/archive boundary — :meth:`to_traces` wraps the rows on
    demand, carrying the acquisition context (labels, stimulus, sampling
    grid) stored here.
    """

    golden: np.ndarray
    infected: Dict[str, np.ndarray]
    golden_labels: List[str]
    infected_labels: Dict[str, List[str]]
    plaintext: bytes
    sample_period_ns: float
    cycle_sample_offsets: List[int]

    def _wrap(self, matrix: np.ndarray, labels: Sequence[str]
              ) -> List[EMTrace]:
        return [
            EMTrace(
                samples=matrix[row].copy(),
                label=labels[row],
                plaintext=self.plaintext,
                sample_period_ns=self.sample_period_ns,
                cycle_sample_offsets=list(self.cycle_sample_offsets),
            )
            for row in range(matrix.shape[0])
        ]

    def to_traces(self) -> "tuple[List[EMTrace], Dict[str, List[EMTrace]]]":
        """Wrap the tensors into per-die :class:`EMTrace` lists."""
        return (
            self._wrap(self.golden, self.golden_labels),
            {name: self._wrap(matrix, self.infected_labels[name])
             for name, matrix in self.infected.items()},
        )

    def _fields(self, matrix: np.ndarray, labels: Sequence[str]
                ) -> Dict[str, np.ndarray]:
        """One design's members, in the trace-archive field layout
        (:func:`repro.io.tracefile.traces_to_arrays`) of its rows."""
        rows = matrix.shape[0]
        offsets = np.asarray(self.cycle_sample_offsets, dtype=np.int64)
        return {
            "samples": matrix,
            "labels": np.array(labels),
            "plaintexts": np.full(rows, self.plaintext.hex()),
            "sample_period_ns": np.full(rows, self.sample_period_ns),
            "cycle_sample_offsets_flat": np.tile(offsets, rows),
            "cycle_sample_offsets_lengths": np.full(rows, offsets.size,
                                                    dtype=np.int64),
        }

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The store payload (:func:`~repro.store.pack_groups` layout)."""
        return pack_groups(
            {}, self._fields(self.golden, self.golden_labels),
            {name: self._fields(matrix, self.infected_labels[name])
             for name, matrix in self.infected.items()},
        )

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]
                    ) -> "PopulationTraceTensors":
        """Inverse of :meth:`to_arrays`; the matrices are used as stored."""
        _, golden, infected = unpack_groups(arrays)
        num_offsets = int(golden["cycle_sample_offsets_lengths"][0])
        return cls(
            golden=golden["samples"],
            infected={name: fields["samples"]
                      for name, fields in infected.items()},
            golden_labels=[str(label) for label in golden["labels"]],
            infected_labels={name: [str(label) for label in fields["labels"]]
                             for name, fields in infected.items()},
            plaintext=bytes.fromhex(str(golden["plaintexts"][0])),
            sample_period_ns=float(golden["sample_period_ns"][0]),
            cycle_sample_offsets=[
                int(offset) for offset
                in golden["cycle_sample_offsets_flat"][:num_offsets]],
        )


class HTDetectionPlatform:
    """The full reproduction platform (design + trojans + dies + benches)."""

    def __init__(self, device: Optional[FPGADevice] = None,
                 config: Optional[PlatformConfig] = None,
                 golden: Optional[GoldenDesign] = None,
                 infected_cache: Optional[Dict[str, InfectedDesign]] = None):
        self.device = device or virtex5_lx30()
        self.config = config or PlatformConfig()
        self.golden = golden or GoldenDesign.build(device=self.device)
        self.population = DiePopulation(size=self.config.num_dies,
                                        seed=self.config.seed)
        # ``infected_cache`` may be a dict shared between several
        # platforms (the campaign engine passes one so trojan insertion
        # happens once per trojan across the whole grid).
        self._infected_cache: Dict[str, InfectedDesign] = (
            infected_cache if infected_cache is not None else {}
        )
        self.delay_meter = PathDelayMeter(self.config.delay)
        self.em_simulator = EMSimulator(self.config.em)

    # -- design / DUT helpers ----------------------------------------------------

    def infected_design(self, trojan_name: str) -> InfectedDesign:
        """Build (and cache) the infected design for a catalog trojan."""
        if trojan_name not in self._infected_cache:
            trojan = build_trojan(trojan_name, self.device)
            self._infected_cache[trojan_name] = insert_trojan(self.golden, trojan)
        return self._infected_cache[trojan_name]

    def golden_dut(self, die_index: int = 0, label: Optional[str] = None
                   ) -> DeviceUnderTest:
        """A golden design programmed into die ``die_index``."""
        die = self.population[die_index]
        return DeviceUnderTest(self.golden, die, label=label or f"golden_die{die_index}")

    def infected_dut(self, trojan_name: str, die_index: int = 0,
                     label: Optional[str] = None) -> DeviceUnderTest:
        """An infected design programmed into die ``die_index``."""
        die = self.population[die_index]
        return DeviceUnderTest(
            self.infected_design(trojan_name), die,
            label=label or f"{trojan_name}_die{die_index}",
        )

    # -- Sec. III: delay study ----------------------------------------------------------

    def run_delay_study(self, trojan_names: Sequence[str] = ("HT_comb", "HT_seq"),
                        num_pairs: int = 10, die_index: int = 0,
                        pair_seed: int = 7) -> DelayStudyResult:
        """Golden fingerprint plus clean/infected comparisons on one die.

        The paper programmes the golden and infected bitstreams into the
        same physical FPGA, so every campaign here uses the same die.
        Two clean campaigns ("Clean1", "Clean2") are always included —
        they are the paper's control showing the noise floor.
        """
        pairs = generate_pk_pairs(num_pairs, seed=pair_seed)
        seed = self.config.seed
        labels = ["GM", "Clean1", "Clean2"]
        duts = [self.golden_dut(die_index, label=label) for label in labels]
        duts += [self.infected_dut(name, die_index, label=name)
                 for name in trojan_names]
        seeds = [seed, seed + 101, seed + 102]
        seeds += [seed + 200 + index for index in range(len(trojan_names))]
        # Per-pair sweeps calibrated once on the golden model and reused for
        # every device under test, so step counts stay comparable; every
        # device is then measured in one compiled (DUT x pair) sweep.
        glitch = self.delay_meter.calibrate_glitches(duts[0], pairs)
        fingerprint_measurement, *device_measurements = \
            self.delay_meter.measure_batch(duts, pairs, glitch, seeds=seeds)
        fingerprint = DelayFingerprint.from_measurement(fingerprint_measurement)
        detector = DelayDetector(fingerprint)
        measurements: Dict[str, DelayMeasurement] = {
            dut.label: measurement
            for dut, measurement in zip(duts[1:], device_measurements)
        }

        detector.calibrate_with_clean([measurements["Clean1"]])
        comparisons = {label: detector.compare(measurement)
                       for label, measurement in measurements.items()}
        return DelayStudyResult(
            fingerprint=fingerprint,
            measurements=measurements,
            comparisons=comparisons,
            pairs=pairs,
        )

    # -- Sec. IV: same-die EM study ---------------------------------------------------------

    def run_same_die_em_study(self, trojan_names: Sequence[str] = ("HT_comb",),
                              die_index: int = 0,
                              plaintext: Optional[bytes] = None,
                              key: Optional[bytes] = None,
                              num_golden_acquisitions: int = 2
                              ) -> SameDieEMStudyResult:
        """Averaged-trace comparison of genuine and infected designs, one die."""
        plaintext = plaintext if plaintext is not None else bytes(range(16))
        key = key if key is not None else bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
        )
        rng = np.random.default_rng(self.config.seed + 40 + die_index)

        golden_traces: List[EMTrace] = []
        for acquisition in range(max(2, num_golden_acquisitions)):
            dut = self.golden_dut(die_index, label=f"Genuine AES {acquisition + 1}")
            golden_traces.append(
                self.em_simulator.acquire(
                    dut, plaintext, key, rng,
                    new_setup_installation=(acquisition > 0),
                )
            )
        reference = EMReference.from_traces(golden_traces, label="same-die reference")
        detector = SameDieEMDetector(reference)

        comparisons: Dict[str, SameDieComparison] = {}
        infected_traces: Dict[str, EMTrace] = {}
        for name in trojan_names:
            dut = self.infected_dut(name, die_index, label=f"Infected AES ({name})")
            trace = self.em_simulator.acquire(dut, plaintext, key, rng)
            infected_traces[name] = trace
            comparisons[name] = detector.compare(trace, label=dut.label)
        return SameDieEMStudyResult(
            reference=reference,
            golden_traces=golden_traces,
            comparisons=comparisons,
            infected_traces=infected_traces,
        )

    # -- Sec. V: population EM study -------------------------------------------------------------

    def _die_rngs(self) -> List[np.random.Generator]:
        """One noise stream per die, seeded as the Sec. V campaign does."""
        return [np.random.default_rng(self.config.seed + 1000 + die_index)
                for die_index in range(len(self.population))]

    def acquire_population_tensors(self, trojan_names: Sequence[str],
                                   plaintexts: Optional[Sequence[bytes]] = None,
                                   key: Optional[bytes] = None
                                   ) -> "PopulationTraceTensors":
        """The Sec. V-A population as matrix-resident sample tensors.

        Every design's (plaintext x die) grid is synthesised as one
        ``(plaintexts, dies, samples)`` tensor
        (:meth:`EMSimulator.acquire_many_batch_tensor`) and each die is
        represented by its stimulus-averaged trace
        (:func:`average_stimulus_tensor`); ``plaintexts=None`` is the
        paper's single stimulus.  No :class:`EMTrace` objects are built
        — :meth:`PopulationTraceTensors.to_traces` wraps the rows at the
        persistence/report boundary.  Each die keeps its own noise
        stream, consumed in the order of a serial per-(design, die)
        acquisition loop, so every row is bit-identical to it.
        """
        plaintexts = ([DEFAULT_PLAINTEXT] if plaintexts is None
                      else [bytes(plaintext) for plaintext in plaintexts])
        key = key if key is not None else DEFAULT_KEY
        rngs = self._die_rngs()

        def acquire(duts: List[DeviceUnderTest]):
            grid, cycle_offsets = self.em_simulator.acquire_many_batch_tensor(
                duts, plaintexts, key, rngs, new_setup_installation=True,
            )
            # One stimulus: take the plane itself.  mean(axis=0) would
            # turn every -0.0 sample into +0.0, so the rows would no
            # longer be byte-identical to the serial acquisition.
            if grid.shape[0] == 1:
                return grid[0], cycle_offsets
            return average_stimulus_tensor(grid), cycle_offsets

        die_indices = range(len(self.population))
        golden_duts = [self.golden_dut(die_index) for die_index in die_indices]
        golden, cycle_offsets = acquire(golden_duts)
        infected: Dict[str, np.ndarray] = {}
        infected_labels: Dict[str, List[str]] = {}
        for name in trojan_names:
            duts = [self.infected_dut(name, die_index)
                    for die_index in die_indices]
            infected[name], _ = acquire(duts)
            infected_labels[name] = [dut.label for dut in duts]
        return PopulationTraceTensors(
            golden=golden,
            infected=infected,
            golden_labels=[dut.label for dut in golden_duts],
            infected_labels=infected_labels,
            plaintext=plaintexts[0],
            sample_period_ns=1.0
            / self.config.em.oscilloscope.sample_rate_gsps,
            cycle_sample_offsets=list(cycle_offsets),
        )


def average_stimulus_tensor(grid: np.ndarray) -> np.ndarray:
    """Collapse a ``(plaintexts, dies, samples)`` tensor to per-die means.

    One axis reduction, bit-identical to averaging the per-stimulus
    :class:`EMTrace` samples die by die: a random-plaintext campaign
    characterises each die by the mean of its per-stimulus averaged
    traces, and golden and infected devices are averaged over the
    *same* stimulus set, so the Sec. V comparison stays like-for-like.
    """
    tensor = np.asarray(grid, dtype=float)
    if tensor.ndim != 3:
        raise ValueError("grid must be (plaintexts, dies, samples)")
    if tensor.shape[0] == 0:
        raise ValueError("every die needs at least one stimulus trace")
    return tensor.mean(axis=0)
