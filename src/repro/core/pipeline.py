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

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..campaigns.spec import CampaignSpec
from ..fpga.design import GoldenDesign
from ..fpga.device import FPGADevice, virtex5_lx30
from ..stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT
from ..measurement.delay_meter import (
    DelayMeasurement,
    PathDelayMeter,
    PlaintextKeyPair,
    generate_pk_pairs,
)
from ..measurement.dut import DeviceUnderTest
from ..measurement.em_simulator import EMAcquisitionConfig, EMSimulator, EMTrace
from ..store.artifacts import pack_groups, unpack_groups
from ..trojan.insertion import InfectedDesign, insert_trojan
from ..trojan.library import build_trojan
from ..variation.inter_die import DiePopulation
from .delay_detector import DelayComparisonResult, DelayDetector
from .em_detector import (
    PopulationCharacterisation,
    SameDieComparison,
    SameDieEMDetector,
)
from .fingerprint import DelayFingerprint, EMReference


@dataclass
class DelayStudyResult:
    """Output of the Sec. III delay campaign."""

    fingerprint: DelayFingerprint
    measurements: Dict[str, DelayMeasurement]
    comparisons: Dict[str, DelayComparisonResult]
    pairs: List[PlaintextKeyPair]


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

    def first_dies(self, num_dies: int) -> "PopulationTraceTensors":
        """The population of the first ``num_dies`` dies (row views)."""
        return replace(
            self, golden=self.golden[:num_dies],
            golden_labels=self.golden_labels[:num_dies],
            infected={name: rows[:num_dies]
                      for name, rows in self.infected.items()},
            infected_labels={name: labels[:num_dies]
                             for name, labels in self.infected_labels.items()})

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
    """The full reproduction platform (design + trojans + dies + benches).

    Every size comes from one :class:`~repro.campaigns.spec.CampaignSpec`
    (the default spec without one): the die population holds
    ``max(spec.die_counts)`` dies — dies are prefix-stable, so a study of
    N dies uses the first N — and the clock-glitch bench is
    :meth:`CampaignSpec.build_delay_config`.  The EM bench is the
    paper's; a population acquisition takes its die count and
    acquisition config as arguments.  The golden design, each infected
    design and each (design, die) delay annotation are built once per
    platform.
    """

    def __init__(self, spec: Optional[CampaignSpec] = None,
                 device: Optional[FPGADevice] = None,
                 golden: Optional[GoldenDesign] = None):
        spec = spec or CampaignSpec()
        self.seed = spec.seed
        self.device = device or virtex5_lx30()
        self.golden = golden or GoldenDesign.build(device=self.device)
        self.population = DiePopulation(size=max(spec.die_counts),
                                        seed=spec.seed)
        self.delay_meter = PathDelayMeter(spec.build_delay_config())
        self.em_simulator = EMSimulator()
        self._infected: Dict[str, InfectedDesign] = {}
        # Shared by every DUT of the platform (:class:`DeviceUnderTest`).
        self._annotations: Dict = {}

    # -- design / DUT helpers ----------------------------------------------------

    def infected_design(self, trojan_name: str) -> InfectedDesign:
        """Build (and cache) the infected design for a catalog trojan."""
        if trojan_name not in self._infected:
            trojan = build_trojan(trojan_name, self.device)
            self._infected[trojan_name] = insert_trojan(self.golden, trojan)
        return self._infected[trojan_name]

    def golden_dut(self, die_index: int = 0, label: Optional[str] = None
                   ) -> DeviceUnderTest:
        """A golden design programmed into die ``die_index``."""
        die = self.population[die_index]
        return DeviceUnderTest(self.golden, die,
                               label=label or f"golden_die{die_index}",
                               annotation_cache=self._annotations)

    def infected_dut(self, trojan_name: str, die_index: int = 0,
                     label: Optional[str] = None) -> DeviceUnderTest:
        """An infected design programmed into die ``die_index``."""
        die = self.population[die_index]
        return DeviceUnderTest(
            self.infected_design(trojan_name), die,
            label=label or f"{trojan_name}_die{die_index}",
            annotation_cache=self._annotations,
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
        seed = self.seed
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
        plaintext = plaintext if plaintext is not None else DEFAULT_PLAINTEXT
        key = key if key is not None else DEFAULT_KEY
        rng = np.random.default_rng(self.seed + 40 + die_index)

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

    def _die_rngs(self, num_dies: int) -> List[np.random.Generator]:
        """One noise stream per die, seeded as the Sec. V campaign does."""
        return [np.random.default_rng(self.seed + 1000 + die_index)
                for die_index in range(num_dies)]

    def acquire_population_tensors(self, trojan_names: Sequence[str],
                                   plaintexts: Optional[Sequence[bytes]] = None,
                                   key: Optional[bytes] = None,
                                   num_dies: Optional[int] = None,
                                   em: Optional[EMAcquisitionConfig] = None
                                   ) -> "PopulationTraceTensors":
        """The Sec. V-A population as matrix-resident sample tensors.

        The population is the first ``num_dies`` dies (all of them by
        default), acquired on a bench of config ``em`` (the paper's by
        default).  Each die is represented by its stimulus-averaged
        trace, one ``(dies, samples)`` matrix per design
        (:meth:`EMSimulator.acquire_many_batch_tensor`);
        ``plaintexts=None`` is the paper's single stimulus.  No
        :class:`EMTrace` objects are built —
        :meth:`PopulationTraceTensors.to_traces` wraps the rows at the
        persistence/report boundary.  Each die keeps its own noise
        stream, consumed in the order of a serial per-(design, die)
        acquisition loop, so every row is bit-identical to it, and a
        population of N dies is the first N rows of a larger one.
        """
        num_dies = len(self.population) if num_dies is None else num_dies
        if not 1 <= num_dies <= len(self.population):
            raise ValueError(f"num_dies must be in 1..{len(self.population)}"
                             f", got {num_dies}")
        simulator = self.em_simulator if em is None else EMSimulator(em)
        plaintexts = ([DEFAULT_PLAINTEXT] if plaintexts is None
                      else [bytes(plaintext) for plaintext in plaintexts])
        key = key if key is not None else DEFAULT_KEY
        rngs = self._die_rngs(num_dies)

        def acquire(duts: List[DeviceUnderTest]):
            return simulator.acquire_many_batch_tensor(
                duts, plaintexts, key, rngs, new_setup_installation=True,
            )

        die_indices = range(num_dies)
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
            / simulator.config.oscilloscope.sample_rate_gsps,
            cycle_sample_offsets=list(cycle_offsets),
        )

