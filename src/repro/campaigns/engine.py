"""Batched campaign execution.

:class:`CampaignEngine` executes a :class:`~repro.campaigns.spec.CampaignSpec`
grid far faster than naively re-running a population study per cell:

* **batched acquisition** — every (design, die-population) trace set is
  synthesised in one vectorised NumPy pass
  (:meth:`~repro.measurement.em_simulator.EMSimulator.acquire_many_batch_tensor`);
* **memoised designs** — the golden design is built once and trojan
  insertion happens once per trojan name, shared by every grid cell
  through a common infected-design cache;
* **memoised fingerprints** — acquired trace sets and the fitted golden
  EM references are cached per (die count, acquisition variant), so
  cells that differ only in the detection metric re-score cached traces
  instead of re-acquiring;
* **supervised parallelism** — independent grid cells can be spread
  over a fleet of supervised worker processes (``spec.workers > 1``,
  :class:`~repro.campaigns.supervisor.CampaignSupervisor`); results are
  identical to the serial order, and worker crashes, hung cells and
  raising cells are retried with backoff then quarantined as explicit
  ``failed`` rows instead of aborting the grid;
* **delay-study cells** — grid cells carrying a ``delay_*`` metric run
  the Sec. III clock-glitch campaign across the die population through
  the compiled timing kernel: one
  :meth:`~repro.measurement.delay_meter.PathDelayMeter.measure_batch`
  call covers every (pair, device) combination, and cells differing
  only in metric re-score the cached Eq. (4) difference tensors with
  one :data:`DELAY_METRIC_BATCH_SCORERS` call per population;
* **content-addressed persistence** — with a
  :class:`~repro.store.ArtifactStore` attached, the acquisition, delay
  and fault-sweep caches and the infected-design summaries go through
  :func:`repro.store.read_through` (tensors as stored by their
  ``to_arrays`` over :func:`repro.store.pack_groups`), and every
  finished cell's rows are recorded: a rerun (same spec fragment, any
  campaign name, any host) loads instead of recomputing, an interrupted
  run resumes with only the missing cells, and
  :meth:`CampaignSpec.shard`-ed runs on separate processes or hosts
  share artifacts and are fused back with
  :func:`merge_campaign_results` into a result row-for-row identical to
  an unsharded run.

The paper's Sec. V study is :meth:`CampaignEngine.population_study`:
one cell's cached population scored in one
:meth:`~repro.core.em_detector.PopulationEMDetector.fit_and_characterise`
pass.  EM grid cells build their rows from it, and the experiment suite
(:mod:`repro.experiments`) reads Fig. 6 and the headline table from it.
Every stored artifact is keyed in one place, :meth:`CampaignEngine._store_key`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.batch import characterise_score_populations
from ..analysis.gaussian import GaussianFit
from ..core.delay_detector import DelayDetector
from ..core.em_detector import PopulationEMDetector
from ..core.fingerprint import DelayFingerprint
from ..core.metrics import (
    L1TraceMetric,
    LocalMaximaSumMetric,
    MaxDifferenceMetric,
)
from ..core.pipeline import (
    HTDetectionPlatform,
    PlatformConfig,
    PopulationEMStudyResult,
    PopulationTraceTensors,
)
from ..core.report import format_table
from ..fpga.design import GoldenDesign
from ..fpga.device import FPGADevice, virtex5_lx30
from ..io.results import save_result, save_summary_csv
from ..io.tracefile import save_traces
from ..attacks.glitch_grid import (
    GlitchGrid,
    device_fault_coverages,
    synthesise_faulted_sweep,
)
from ..crypto.batch import as_block_matrix, expand_keys, round_states_with_keys
from ..measurement.delay_meter import (
    DelayMeasurementConfig,
    PlaintextKeyPair,
    generate_pk_pairs,
)
from ..measurement.em_simulator import EMTrace
from ..store import (
    ARTIFACT_SCHEMA_VERSION,
    DEFAULT_GOLDEN_SIGNATURE,
    Store,
    build_store,
    golden_signature,
    pack_groups,
    read_through,
    spec_content_fragment,
    stable_key,
    unpack_groups,
)
from ..trojan.insertion import InfectedDesign, insert_trojan
from ..trojan.library import build_trojan
from .spec import CampaignSpec, GridCell

PathLike = Union[str, Path]

#: Metric registry: spec metric name -> factory.
METRIC_FACTORIES = {
    "local_maxima_sum": LocalMaximaSumMetric,
    "l1": L1TraceMetric,
    "max_difference": MaxDifferenceMetric,
}


#: Delay-metric registry: spec metric name -> batched scorer over a
#: stacked ``(devices, pairs, bits)`` tensor of Eq. (4) per-(pair, bit)
#: differences, one device campaign per plane; each returns the
#: ``(devices,)`` score vector.
DELAY_METRIC_BATCH_SCORERS = {
    # Worst per-bit shift anywhere (the paper's device-level score: one
    # disturbed net is enough).
    "delay_max_difference":
        lambda differences: differences.max(axis=(1, 2)),
    # Mean over pairs of the per-pair worst shift (rewards trojans whose
    # influence shows on many stimuli, damps single-pair outliers).
    "delay_mean_pair_max":
        lambda differences: differences.max(axis=2).mean(axis=1),
}


def build_metric(name: str):
    """Instantiate an EM detection metric from its campaign-spec name."""
    try:
        return METRIC_FACTORIES[name]()
    except KeyError as exc:
        raise KeyError(
            f"unknown metric {name!r}; available: "
            + ", ".join(METRIC_FACTORIES)
        ) from exc


def build_delay_batch_scorer(name: str):
    """Resolve a batched delay-metric scorer from its campaign-spec name."""
    try:
        return DELAY_METRIC_BATCH_SCORERS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown delay metric {name!r}; available: "
            + ", ".join(DELAY_METRIC_BATCH_SCORERS)
        ) from exc


@dataclass
class _DelayStudyData:
    """Cached Eq. (4) difference tensors of one delay campaign.

    Stacked ``(dies, pairs, bits)`` tensors: ``golden_differences[die]``
    is the clean control on die ``die``;
    ``infected_differences[trojan][die]`` the infected device on that
    die.  All metrics of a grid re-score these tensors (one batched
    scorer call per population) instead of re-measuring.
    """

    golden_differences: "np.ndarray"
    infected_differences: Dict[str, "np.ndarray"]

    def to_arrays(self) -> Dict[str, np.ndarray]:
        return pack_groups({}, {"diff": self.golden_differences},
                           {name: {"diff": differences} for name, differences
                            in self.infected_differences.items()})

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]
                    ) -> "_DelayStudyData":
        _, golden, infected = unpack_groups(arrays)
        return cls(golden_differences=golden["diff"],
                   infected_differences={name: fields["diff"]
                                         for name, fields in infected.items()})


#: The glitch-grid axes a fault sweep stores (``axes::<name>`` members).
_GRID_AXES = ("offsets_ps", "widths_ps", "periods_ps")


@dataclass
class _FaultSweepData:
    """Cached faulted-ciphertext tensors of one glitch-grid sweep.

    ``correct`` is the ``(N, 16)`` fault-free capture of the attacked
    round per stimulus; the faulted tensors are ``(dies, grid points,
    N, 16)`` — ``golden_faulted[die]`` the clean control,
    ``infected_faulted[trojan][die]`` the infected device on that die.
    ``grid`` is the *resolved* glitch grid (after auto-calibration).
    """

    grid: GlitchGrid
    plaintexts: "np.ndarray"
    correct: "np.ndarray"
    golden_faulted: "np.ndarray"
    infected_faulted: Dict[str, "np.ndarray"]

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The store payload; the resolved grid axes travel with it, so a
        store hit reproduces the exact grid without re-calibrating."""
        axes = {f"axes::{axis}": np.asarray(getattr(self.grid, axis),
                                            dtype=float)
                for axis in _GRID_AXES}
        return pack_groups(
            {**axes, "plaintexts": self.plaintexts, "correct": self.correct},
            {"faulted": self.golden_faulted},
            {name: {"faulted": tensor}
             for name, tensor in self.infected_faulted.items()})

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]
                    ) -> "_FaultSweepData":
        shared, golden, infected = unpack_groups(arrays)
        return cls(
            grid=GlitchGrid(**{axis: tuple(shared[f"axes::{axis}"])
                               for axis in _GRID_AXES}),
            plaintexts=shared["plaintexts"],
            correct=shared["correct"],
            golden_faulted=golden["faulted"],
            infected_faulted={name: fields["faulted"]
                              for name, fields in infected.items()},
        )


@dataclass
class CampaignRow:
    """One summary row: one trojan in one grid cell."""

    cell_index: int
    num_dies: int
    variant: str
    metric: str
    trojan: str
    area_fraction: float
    mu: float
    sigma: float
    false_negative_rate: float
    detection_probability: float

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignRow":
        return cls(**{field.name: payload[field.name]
                      for field in dataclasses.fields(cls)})


@dataclass
class CampaignCellResult:
    """Outcome of one executed grid cell.

    ``status`` is ``"ok"`` for a computed cell and ``"failed"`` for a
    poison cell the supervisor quarantined after exhausting its retries
    (``error`` then carries the per-attempt failure log and ``rows`` is
    empty).  Failed cells travel through save/merge/CSV as explicit
    degraded rows, are skipped by reporting, and count as *pending* on
    resume so a rerun retries exactly them.
    """

    index: int
    num_dies: int
    variant: str
    metric: str
    rows: List[CampaignRow]
    golden_score_mean: float
    golden_score_std: float
    elapsed_s: float
    trace_archive: Optional[str] = None
    status: str = "ok"
    error: Optional[str] = None
    #: Attempts consumed to produce this outcome (1 = first try).
    attempts: int = 1

    def false_negative_rates(self) -> Dict[str, float]:
        return {row.trojan: row.false_negative_rate for row in self.rows}

    @classmethod
    def failed(cls, cell: GridCell, error: str,
               attempts: int) -> "CampaignCellResult":
        """The explicit quarantine row of a cell that failed every retry."""
        return cls(
            index=cell.index,
            num_dies=cell.num_dies,
            variant=cell.variant.name,
            metric=cell.metric,
            rows=[],
            golden_score_mean=0.0,
            golden_score_std=0.0,
            elapsed_s=0.0,
            status="failed",
            error=error,
            attempts=attempts,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "num_dies": self.num_dies,
            "variant": self.variant,
            "metric": self.metric,
            "golden_score_mean": self.golden_score_mean,
            "golden_score_std": self.golden_score_std,
            "elapsed_s": self.elapsed_s,
            "trace_archive": self.trace_archive,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignCellResult":
        return cls(
            index=payload["index"],
            num_dies=payload["num_dies"],
            variant=payload["variant"],
            metric=payload["metric"],
            rows=[CampaignRow.from_dict(row) for row in payload["rows"]],
            golden_score_mean=payload["golden_score_mean"],
            golden_score_std=payload["golden_score_std"],
            elapsed_s=payload["elapsed_s"],
            trace_archive=payload.get("trace_archive"),
            # Pre-supervisor records carry no status: they were only
            # ever written for successfully computed cells.
            status=payload.get("status", "ok"),
            error=payload.get("error"),
            attempts=payload.get("attempts", 1),
        )


@dataclass
class CampaignResult:
    """All cells of one campaign run, plus reporting helpers.

    A sharded run carries only its shard's cells (with their *global*
    grid indices) and records the ``(index, count)`` pair; shard results
    are fused back into a full-grid result with
    :func:`merge_campaign_results`.
    """

    spec: CampaignSpec
    cells: List[CampaignCellResult]
    elapsed_s: float = 0.0
    shard: Optional[Tuple[int, int]] = None
    #: Cells this run loaded from store completion records (not saved).
    resumed: int = 0

    def rows(self) -> List[CampaignRow]:
        """Summary rows of the successfully computed cells only."""
        return [row for cell in self.cells if cell.status == "ok"
                for row in cell.rows]

    def failed_cells(self) -> List[CampaignCellResult]:
        """The quarantined poison cells of a degraded run."""
        return [cell for cell in self.cells if cell.status != "ok"]

    def report(self) -> str:
        table = format_campaign_rows([row.to_dict()
                                      for row in self.rows()])
        failed = self.failed_cells()
        if failed:
            notes = [""]
            for cell in failed:
                notes.append(
                    f"cell {cell.index} FAILED after {cell.attempts} "
                    f"attempt(s): {cell.error}"
                )
            notes.append(
                f"{len(failed)} cell(s) quarantined; rerun with the same "
                f"store to retry only them"
            )
            table += "\n".join(notes)
        return table

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "elapsed_s": self.elapsed_s,
            "shard": list(self.shard) if self.shard is not None else None,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignResult":
        shard = payload.get("shard")
        return cls(
            spec=CampaignSpec.from_dict(payload["spec"]),
            cells=[CampaignCellResult.from_dict(cell)
                   for cell in payload["cells"]],
            elapsed_s=payload.get("elapsed_s", 0.0),
            shard=tuple(shard) if shard is not None else None,
        )

    def save(self, directory: PathLike) -> Path:
        """Persist the summary (JSON + CSV) under ``directory``.

        Per-cell trace artifacts are written by the engine during the
        run (``spec.save_traces``); this stores the machine-readable
        summary next to them: one JSON tree and one CSV with one row per
        (cell, trojan).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        summary_path = save_result(directory / f"{self.spec.name}.json",
                                   self.to_dict())
        rows = [dict(row.to_dict(), status="ok") for row in self.rows()]
        # Quarantined cells appear as explicit degraded stub rows so a
        # CSV consumer sees the coverage hole instead of silently
        # missing rows.
        for cell in self.failed_cells():
            rows.append({
                "cell_index": cell.index,
                "num_dies": cell.num_dies,
                "variant": cell.variant,
                "metric": cell.metric,
                "trojan": "",
                "status": cell.status,
                "error": cell.error or "",
            })
        # A shard of a small grid can legitimately hold zero cells; the
        # JSON summary (which campaign merge consumes) is still written,
        # only the CSV — whose column set is undefined with no rows — is
        # skipped.
        if rows:
            save_summary_csv(directory / f"{self.spec.name}.csv", rows)
        return summary_path


def _format_score(value: float) -> str:
    """Row-table number format across metric scales.

    EM separations are in the thousands, fault-coverage separations are
    fractions of 1 — integers for the former, three decimals for the
    latter, instead of collapsing every sub-unit value to ``0``.
    """
    return f"{value:.0f}" if abs(value) >= 10.0 else f"{value:.3f}"


def format_campaign_rows(rows: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable table of campaign summary rows."""
    header = ["cell", "dies", "variant", "metric", "trojan", "% of AES",
              "mu", "sigma", "FN rate", "detection"]
    table = [
        [str(row["cell_index"]), str(row["num_dies"]), str(row["variant"]),
         str(row["metric"]), str(row["trojan"]),
         f"{100.0 * row['area_fraction']:.2f}%",
         _format_score(row["mu"]), _format_score(row["sigma"]),
         f"{100.0 * row['false_negative_rate']:.1f}%",
         f"{100.0 * row['detection_probability']:.1f}%"]
        for row in rows
    ]
    return format_table(header, table)


class CampaignEngine:
    """Executes a campaign grid with shared caches and batched acquisition.

    ``store`` (anything :func:`~repro.store.build_store` accepts: a
    directory path, a store's ``spawn_config()`` dict or a live store)
    makes every cache *read through* content-addressed on-disk
    artifacts and records per-cell completion, enabling warm reruns,
    resume after interruption, and sharded multi-process/host campaigns.
    """

    def __init__(self, spec: CampaignSpec,
                 device: Optional[FPGADevice] = None,
                 golden: Optional[GoldenDesign] = None,
                 store: Union[None, Store, PathLike,
                              Mapping[str, Any]] = None):
        self.spec = spec
        self.device = device or virtex5_lx30()
        # The golden design is built lazily: a fully warm store-backed
        # run needs no design at all, so it must not pay for synthesis.
        self._golden: Optional[GoldenDesign] = golden
        self._golden_signature: Any = (
            DEFAULT_GOLDEN_SIGNATURE if golden is None
            else golden_signature(golden)
        )
        self.store: Optional[Store] = build_store(store)
        #: Trojan insertion cache shared by every platform of the grid.
        self._infected_cache: Dict[str, InfectedDesign] = {}
        self._platform_cache: Dict[Tuple[int, str], HTDetectionPlatform] = {}
        #: Read-through memo of every store-backed artifact, keyed by
        #: ``(kind, key)``: population tensors per acquisition key, delay
        #: and fault-sweep data per die count (both independent of the EM
        #: variant) and area fractions per trojan (:meth:`_read_through`).
        self._memo: Dict[Tuple[str, Any], Any] = {}
        self._artifact_dir: Optional[Path] = None
        self._saved_archives: Dict[Tuple[int, str], str] = {}
        #: Grid indices of the cells the current ``run`` invocation
        #: covers (``None`` outside ``run`` = the whole grid); sharded
        #: runs use it to decide trace-archive ownership among the
        #: cells actually present.
        self._active_indices: Optional[frozenset] = None

    @property
    def golden(self) -> GoldenDesign:
        """The golden design (built on first use)."""
        if self._golden is None:
            self._golden = GoldenDesign.build(device=self.device)
        return self._golden

    # -- caches -------------------------------------------------------------------

    def infected_design(self, trojan_name: str) -> InfectedDesign:
        """Build (and cache) the infected design for a catalog trojan.

        Same contract as
        :meth:`~repro.core.pipeline.HTDetectionPlatform.infected_design`;
        the cache dict is shared with every platform of the grid.
        """
        if trojan_name not in self._infected_cache:
            trojan = build_trojan(trojan_name, self.device)
            self._infected_cache[trojan_name] = insert_trojan(self.golden,
                                                              trojan)
        return self._infected_cache[trojan_name]

    def _store_key(self, kind: str, **fields: Any) -> Optional[str]:
        """The content key of one stored artifact (``None`` without a store).

        The one place a store key is built: the artifact ``kind``, the
        schema version, the device and the golden design, plus the
        ``fields`` of the spec fragment that produces the artifact.
        """
        if self.store is None:
            return None
        return stable_key({"kind": kind, "schema": ARTIFACT_SCHEMA_VERSION,
                           "device": self.device,
                           "golden": self._golden_signature, **fields})

    def _read_through(self, kind: str, memo_key: Any,
                      key_fields: Mapping[str, Any], compute, pack, unpack,
                      meta) -> Any:
        """The memo in front of :func:`repro.store.read_through`, the one
        path by which the engine reuses an artifact, stored under
        :meth:`_store_key` of ``kind`` and ``key_fields``."""
        memo_key = (kind, memo_key)
        if memo_key not in self._memo:
            self._memo[memo_key] = read_through(
                self.store, kind, self._store_key(kind, **key_fields),
                compute, pack, unpack, meta)
        return self._memo[memo_key]

    def trojan_area_fraction(self, trojan_name: str) -> float:
        """The trojan's area as a fraction of the AES design.

        Reads through the store: a warm run prints its ``% of AES``
        column without paying for golden synthesis and trojan insertion.
        """
        return self._read_through(
            "infected_summary", trojan_name, {"trojan": str(trojan_name)},
            compute=lambda: float(self.infected_design(trojan_name)
                                  .area_fraction_of_aes()),
            pack=lambda fraction: {"trojan": trojan_name,
                                   "area_fraction_of_aes": fraction},
            unpack=lambda payload: float(payload["area_fraction_of_aes"]),
            meta=lambda fraction: {"trojan": trojan_name},
        )

    def platform_for(self, cell: GridCell) -> HTDetectionPlatform:
        """The (cached) detection platform of one grid cell.

        Platforms are cached per (die count, variant): they share the
        golden design and the infected-design cache, so the expensive
        synthesis/insertion work happens once for the whole campaign.
        """
        cache_key = cell.acquisition_key
        if cache_key not in self._platform_cache:
            config = PlatformConfig(
                num_dies=cell.num_dies,
                seed=self.spec.seed,
                delay=self._delay_config(),
                em=cell.variant.build_em_config(),
            )
            self._platform_cache[cache_key] = HTDetectionPlatform(
                device=self.device,
                config=config,
                golden=self.golden,
                infected_cache=self._infected_cache,
            )
        return self._platform_cache[cache_key]

    def _delay_config(self) -> DelayMeasurementConfig:
        """The clock-glitch bench of every platform (and delay key)."""
        return DelayMeasurementConfig(
            repetitions=self.spec.delay_repetitions, seed=self.spec.seed)

    def _cell_tensors(self, cell: GridCell) -> PopulationTraceTensors:
        """Acquire (or reuse) the population of one grid cell.

        This is the golden-fingerprint cache: cells that differ only in
        the metric share one population per acquisition key, and with
        it the golden reference they induce.  With
        ``spec.num_plaintexts > 1`` each die is represented by its
        stimulus-averaged trace.  The population stays tensor-resident:
        the store payload is written from and read into the matrices,
        and :class:`EMTrace` objects are built only for trace archives.
        """
        return self._read_through(
            "population_traces", cell.acquisition_key,
            {"em": cell.variant.build_em_config(),
             "seed": int(self.spec.seed), "num_dies": cell.num_dies,
             "trojans": self.spec.trojans, "key": self.spec.key,
             "plaintexts": self.spec.stimulus_plaintexts()},
            compute=lambda: self.platform_for(cell).acquire_population_tensors(
                self.spec.trojans, self.spec.stimulus_plaintexts(),
                self.spec.key),
            pack=PopulationTraceTensors.to_arrays,
            unpack=PopulationTraceTensors.from_arrays,
            meta=lambda tensors: {
                "num_dies": cell.num_dies, "variant": cell.variant.name,
                "num_plaintexts": len(self.spec.stimulus_plaintexts())},
        )

    def acquire_cell_traces(self, cell: GridCell
                            ) -> Tuple[List[EMTrace], Dict[str, List[EMTrace]]]:
        """The cell's population as :class:`EMTrace` lists (trace archives)."""
        return self._cell_tensors(cell).to_traces()

    def cell_trace_matrices(self, cell: GridCell
                            ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """The cell's population as stacked ``(dies, samples)`` matrices."""
        tensors = self._cell_tensors(cell)
        return tensors.golden, {name: tensors.infected[name]
                                for name in self.spec.trojans}

    def population_study(self, cell: GridCell) -> PopulationEMStudyResult:
        """The Sec. V inter-die study of one EM grid cell.

        The cell's population (:meth:`_cell_tensors`, read through the
        store) scored with the cell's metric in one
        :meth:`PopulationEMDetector.fit_and_characterise` pass, plus each
        trojan's area fraction.  The population stays matrix-resident.
        """
        tensors = self._cell_tensors(cell)
        reference, characterisations = PopulationEMDetector(
            build_metric(cell.metric)
        ).fit_and_characterise(tensors.golden,
                               {name: tensors.infected[name]
                                for name in self.spec.trojans})
        return PopulationEMStudyResult(
            reference=reference,
            tensors=tensors,
            characterisations=characterisations,
            trojan_area_fractions={name: self.trojan_area_fraction(name)
                                   for name in self.spec.trojans},
        )

    def delay_study_data(self, cell: GridCell) -> "_DelayStudyData":
        """Measure (or reuse) the delay campaigns of one grid cell.

        One batched clock-glitch campaign per die count: the golden
        fingerprint is measured on die 0, then every (clean die,
        infected die x trojan) device is measured in a single
        :meth:`~repro.measurement.delay_meter.PathDelayMeter.measure_batch`
        call — the compiled timing kernel sweeps the whole
        (pairs x devices) grid in a few array passes.  Cells that differ
        only in the metric (or the EM variant) re-score the cached
        Eq. (4) difference matrices.
        """
        return self._read_through(
            "delay_differences", cell.num_dies,
            {"delay": self._delay_config(), "seed": int(self.spec.seed),
             "num_dies": cell.num_dies, "trojans": self.spec.trojans,
             "num_pk_pairs": int(self.spec.num_pk_pairs)},
            compute=lambda: self._measure_delay_study(cell),
            pack=_DelayStudyData.to_arrays,
            unpack=_DelayStudyData.from_arrays,
            meta=lambda data: {"num_dies": cell.num_dies,
                               "num_pk_pairs": self.spec.num_pk_pairs},
        )

    def _measure_delay_study(self, cell: GridCell) -> "_DelayStudyData":
        num_dies = cell.num_dies
        spec = self.spec
        platform = self.platform_for(cell)
        meter = platform.delay_meter
        pairs = generate_pk_pairs(spec.num_pk_pairs, seed=spec.seed + 7)

        golden_dut = platform.golden_dut(0, label="GM")
        fingerprint_measurement = meter.measure_batch(
            [golden_dut], pairs, None, seeds=[spec.seed]
        )[0]
        # Per-pair sweeps calibrated on the golden model, reused for
        # every device so step counts stay comparable (Sec. III-B).
        glitch = {
            pair.index: pair_measurement.glitch
            for pair, pair_measurement in zip(
                pairs, fingerprint_measurement.pairs)
        }
        detector = DelayDetector(
            DelayFingerprint.from_measurement(fingerprint_measurement)
        )

        duts = self._population_duts(platform, num_dies)
        # One seed per device position: injective for any population
        # size, so no two devices ever share a noise stream.
        seeds = [spec.seed + 100 + position
                 for position in range(len(duts))]
        measurements = meter.measure_batch(duts, pairs, glitch,
                                           seeds=seeds)

        # One batched Eq. (4) evaluation over every (device, die)
        # campaign, then views into the stacked tensor per population.
        differences = detector.difference_ps_batch(measurements)
        golden, infected = self._split_populations(differences, num_dies)
        return _DelayStudyData(golden_differences=golden,
                               infected_differences=infected)

    def _spec_glitch_grid(self) -> Optional[GlitchGrid]:
        """The spec's explicit glitch grid, or None for auto-calibration."""
        if not self.spec.glitch_offsets_ps:
            return None
        return GlitchGrid(
            offsets_ps=self.spec.glitch_offsets_ps,
            widths_ps=self.spec.glitch_widths_ps,
            periods_ps=self.spec.glitch_periods_ps,
        )

    def fault_sweep_data(self, cell: GridCell) -> "_FaultSweepData":
        """Synthesise (or reuse) the glitch-grid sweep of one grid cell.

        One batched fault-injection campaign per die count: per-bit
        arrival times of every (device, stimulus) come from one
        :meth:`~repro.measurement.delay_meter.PathDelayMeter.batch_arrival_times`
        sweep, the attacked round's correct/stale register states from
        one batched-AES pass, and each device's whole (grid x stimulus)
        faulted-ciphertext tensor from one vectorised
        :func:`~repro.attacks.glitch_grid.synthesise_faulted_sweep`
        call.  Cells that differ only in the EM variant share the sweep;
        with a store attached the tensors read through it (the resolved
        grid axes travel in the payload, so warm runs skip calibration
        and the golden build entirely).  The grid axes enter the key as
        the spec-level values (empty = auto-calibrated), so a warm rerun
        of an auto-calibrated sweep hits without the golden build the
        calibration would need.
        """
        spec = self.spec
        return self._read_through(
            "fault_sweep", cell.num_dies,
            {"delay": self._delay_config(), "seed": int(spec.seed),
             "num_dies": cell.num_dies, "trojans": spec.trojans,
             "key": spec.key, "plaintexts": spec.stimulus_plaintexts(),
             "offsets_ps": spec.glitch_offsets_ps,
             "widths_ps": spec.glitch_widths_ps,
             "periods_ps": spec.glitch_periods_ps},
            compute=lambda: self._synthesise_fault_sweep(cell),
            pack=_FaultSweepData.to_arrays,
            unpack=_FaultSweepData.from_arrays,
            meta=lambda data: {"num_dies": cell.num_dies,
                               "num_grid_points": data.grid.num_points,
                               "num_plaintexts": len(data.plaintexts)},
        )

    def _synthesise_fault_sweep(self, cell: GridCell) -> "_FaultSweepData":
        num_dies = cell.num_dies
        spec = self.spec
        platform = self.platform_for(cell)
        meter = platform.delay_meter
        plaintexts = spec.stimulus_plaintexts()
        pairs = [PlaintextKeyPair(index=index, plaintext=plaintext,
                                  key=spec.key)
                 for index, plaintext in enumerate(plaintexts)]

        duts = self._population_duts(platform, num_dies)
        arrivals = meter.batch_arrival_times(duts, pairs)

        # Correct/stale capture values of the attacked round, straight
        # from the batched cipher (row r = register content entering
        # round r, exactly as in the fault staircase).
        attacked = meter.config.attacked_round
        round_keys = expand_keys(spec.key)
        states = round_states_with_keys(as_block_matrix(plaintexts),
                                        round_keys)
        num_rounds = states.shape[1] - 2
        if not 2 <= attacked <= num_rounds:
            raise ValueError(
                f"attacked_round must be in 2..{num_rounds}, got {attacked}"
            )
        correct = states[:, attacked + 1]
        stale = states[:, attacked]

        grid = self._spec_glitch_grid()
        if grid is None:
            # Same calibration philosophy as the delay sweeps: centre
            # the grid on the golden die-0 worst observed path.
            worst = float(np.nanmax(arrivals[0]))
            grid = GlitchGrid.calibrated(worst, meter.config.budget)

        # One seed per device position (offset 500 keeps the streams
        # disjoint from the delay campaign's +100 block).
        faulted = np.stack([
            synthesise_faulted_sweep(
                meter.config.fault_model, grid, correct, stale,
                arrivals[position],
                np.random.default_rng(spec.seed + 500 + position),
            )
            for position in range(len(duts))
        ])
        golden, infected = self._split_populations(faulted, num_dies)
        return _FaultSweepData(
            grid=grid,
            plaintexts=as_block_matrix(plaintexts),
            correct=correct,
            golden_faulted=golden,
            infected_faulted=infected,
        )

    def _population_duts(self, platform: HTDetectionPlatform,
                         num_dies: int) -> list:
        """Clean devices on every die, then each trojan on every die."""
        duts = [platform.golden_dut(die_index, label=f"Clean_die{die_index}")
                for die_index in range(num_dies)]
        for name in self.spec.trojans:
            duts.extend(platform.infected_dut(name, die_index)
                        for die_index in range(num_dies))
        return duts

    def _split_populations(self, stacked: np.ndarray, num_dies: int
                           ) -> "Tuple[np.ndarray, Dict[str, np.ndarray]]":
        """Views of a :meth:`_population_duts`-ordered stack per population."""
        infected = {
            name: stacked[num_dies * (1 + index):num_dies * (2 + index)]
            for index, name in enumerate(self.spec.trojans)
        }
        return stacked[:num_dies], infected

    # -- execution ----------------------------------------------------------------

    def run_cell(self, cell: GridCell) -> CampaignCellResult:
        """Execute one grid cell (EM acquisition, delay study or fault sweep)."""
        if cell.is_delay:
            return self._run_delay_cell(cell)
        if cell.is_fault:
            return self._run_fault_cell(cell)
        return self._run_em_cell(cell)

    def _run_fault_cell(self, cell: GridCell) -> CampaignCellResult:
        """Score one fault-sweep cell from the cached ciphertext tensors.

        Same Gaussian characterisation as the delay cells, with the
        per-die score being the device's *fault coverage* over the
        glitch grid — a trojan's altered path delays shift which grid
        points fault, separating the infected population from the clean
        one.  Scoring is one
        :func:`~repro.attacks.glitch_grid.device_fault_coverages` pass
        per population, then batched fits / Eq. (5) rates.
        """
        start = time.perf_counter()
        data = self.fault_sweep_data(cell)
        fits = characterise_score_populations(
            device_fault_coverages(data.correct, data.golden_faulted),
            np.stack([device_fault_coverages(data.correct,
                                             data.infected_faulted[name])
                      for name in self.spec.trojans]),
        )
        return self._cell_result(cell, start, fits.genuine, fits.mus,
                                 fits.sigmas, fits.rates)

    def _run_delay_cell(self, cell: GridCell) -> CampaignCellResult:
        """Score one delay-study cell from the cached difference tensors.

        Mirrors the EM cells' Gaussian characterisation: the genuine
        population is the per-die score of clean devices against the
        golden fingerprint, the infected population the per-die scores
        of one trojan, and the Eq. (5) overlap gives the
        false-negative rate.  Scoring is batched end-to-end: one
        :data:`DELAY_METRIC_BATCH_SCORERS` pass per population and
        batched Gaussian fits / Eq. (5) rates over the per-trojan score
        matrix (:mod:`repro.analysis.batch`), bit-identical to the
        per-die serial loops.
        """
        start = time.perf_counter()
        data = self.delay_study_data(cell)
        scorer = build_delay_batch_scorer(cell.metric)
        fits = characterise_score_populations(
            scorer(data.golden_differences),
            np.stack([scorer(data.infected_differences[name])
                      for name in self.spec.trojans]),
        )
        return self._cell_result(cell, start, fits.genuine, fits.mus,
                                 fits.sigmas, fits.rates)

    def _run_em_cell(self, cell: GridCell) -> CampaignCellResult:
        """Execute one EM grid cell: acquire (or reuse) traces, score, decide.

        The rows are the cell's :meth:`population_study`: its population
        is shared across every metric cell of the acquisition key.
        """
        start = time.perf_counter()
        study = self.population_study(cell)
        characterisations = [study.characterisations[name]
                             for name in self.spec.trojans]
        trace_archive = self._maybe_save_traces(cell)
        return self._cell_result(
            cell, start, characterisations[0].genuine,
            [char.mu for char in characterisations],
            [char.sigma for char in characterisations],
            [char.false_negative_rate for char in characterisations],
            trace_archive=trace_archive,
        )

    def _cell_result(self, cell: GridCell, start: float,
                     genuine: GaussianFit, mus: Sequence[float],
                     sigmas: Sequence[float], rates: Sequence[float],
                     trace_archive: Optional[str] = None
                     ) -> CampaignCellResult:
        """One row per trojan (in spec order) plus the cell's summary."""
        rows = []
        for index, name in enumerate(self.spec.trojans):
            fn_rate = float(rates[index])
            rows.append(CampaignRow(
                cell_index=cell.index,
                num_dies=cell.num_dies,
                variant=cell.variant.name,
                metric=cell.metric,
                trojan=name,
                area_fraction=self.trojan_area_fraction(name),
                mu=float(mus[index]),
                sigma=float(sigmas[index]),
                false_negative_rate=fn_rate,
                detection_probability=1.0 - fn_rate,
            ))
        return CampaignCellResult(
            index=cell.index,
            num_dies=cell.num_dies,
            variant=cell.variant.name,
            metric=cell.metric,
            rows=rows,
            golden_score_mean=float(genuine.mean),
            golden_score_std=float(genuine.std),
            elapsed_s=time.perf_counter() - start,
            trace_archive=trace_archive,
        )

    def _maybe_save_traces(self, cell: GridCell) -> Optional[str]:
        """Persist the cell's trace artifact (once per acquisition key).

        Ownership is deterministic — the lowest-index cell of each
        acquisition key writes the archive — so parallel workers never
        race on the same file.  The :class:`EMTrace` objects are wrapped
        from the cell's population tensors only here (the scorers run on
        the stacked matrices).
        """
        if self._artifact_dir is None or not self.spec.save_traces:
            return None
        cache_key = cell.acquisition_key
        # Delay and fault-sweep cells acquire no EM traces, so ownership
        # is decided among the EM cells of the acquisition key only —
        # and, in a sharded run, among the cells this invocation
        # actually covers (the full-grid owner may live in another
        # shard).
        owner = min(other.index for other in self.spec.grid()
                    if other.acquisition_key == cache_key
                    and not other.is_delay and not other.is_fault
                    and (self._active_indices is None
                         or other.index in self._active_indices))
        archive = (self._artifact_dir
                   / f"traces_d{cell.num_dies}_{cell.variant.name}.npz")
        if cell.index == owner and cache_key not in self._saved_archives:
            golden_traces, infected_traces = self.acquire_cell_traces(cell)
            all_traces = list(golden_traces)
            for name in self.spec.trojans:
                all_traces.extend(infected_traces[name])
            save_traces(archive, all_traces)
            self._saved_archives[cache_key] = str(archive)
        return str(archive)

    # -- per-cell completion records ----------------------------------------------

    def _cell_key(self, cell: GridCell) -> Optional[str]:
        """Key of the cell's completion record.  Execution-only spec
        fields stay out of it (:func:`~repro.store.spec_content_fragment`),
        so a rename or a new worker count resumes instead of recomputing."""
        return self._store_key(
            "campaign_cell", spec=spec_content_fragment(self.spec.to_dict()),
            cell_index=cell.index)

    def load_cell_result(self, cell: GridCell) -> Optional[CampaignCellResult]:
        """The cell's completion record, if a previous run stored one.

        Failed (quarantined) records and corrupt payloads both count as
        *no record*: the resuming run retries exactly those cells.
        """
        store_key = self._cell_key(cell)
        if store_key is None:
            return None
        payload = self.store.load_json(store_key)
        if payload is None:
            return None
        result = CampaignCellResult.from_dict(payload)
        return result if result.status == "ok" else None

    def record_cell_result(self, cell: GridCell,
                           result: CampaignCellResult) -> None:
        """Record the cell as complete in the store manifest."""
        store_key = self._cell_key(cell)
        if store_key is None:
            return
        self.store.put_json(
            store_key, result.to_dict(), kind="campaign_cell",
            meta={"campaign": self.spec.name, "cell_index": cell.index,
                  "num_dies": cell.num_dies, "variant": cell.variant.name,
                  "metric": cell.metric},
        )

    def run(self, artifact_dir: Optional[PathLike] = None,
            shard: Optional[Tuple[int, int]] = None,
            fault_plan: Optional[Any] = None) -> CampaignResult:
        """Execute the grid — or one ``(index, count)`` shard of it.

        With a store attached, cells whose completion record is already
        in the manifest are *loaded* instead of recomputed — an
        interrupted (or partially sharded) run resumes with only the
        missing cells — and every freshly computed cell is recorded the
        moment it finishes, so progress survives the next interruption.

        Execution goes through the fault-tolerant supervision layer
        (:mod:`repro.campaigns.supervisor`): failed attempts are retried
        with backoff up to ``spec.max_retries`` times, each attempt is
        bounded by ``spec.cell_timeout_s`` (multi-worker runs), and a
        cell that fails every retry is quarantined as an explicit
        ``failed`` row instead of aborting the grid.  ``fault_plan`` (a
        :class:`repro.testing.chaos.FaultPlan`) deterministically
        injects infrastructure faults for chaos testing and requires
        ``spec.workers > 1``.
        """
        start = time.perf_counter()
        self._artifact_dir = None if artifact_dir is None else Path(artifact_dir)
        self._saved_archives.clear()
        if self._artifact_dir is not None:
            self._artifact_dir.mkdir(parents=True, exist_ok=True)
        if self.spec.save_traces and self._artifact_dir is None:
            raise ValueError(
                "spec.save_traces requires an artifact_dir to write the "
                "trace archives to"
            )
        if shard is None:
            cells = self.spec.grid()
        else:
            shard = (int(shard[0]), int(shard[1]))
            cells = self.spec.shard(*shard)
        try:
            completed: Dict[int, CampaignCellResult] = {}
            pending: List[GridCell] = []
            for cell in cells:
                loaded = self.load_cell_result(cell)
                if loaded is not None:
                    completed[cell.index] = loaded
                else:
                    pending.append(cell)
            if pending and self.store is not None:
                # The whole computing run counts as "live" to concurrent
                # maintenance: the lease covers the compute time between
                # store writes, not just the writes themselves.  A fully
                # resumed run writes nothing and registers no lease.
                self.store.acquire_lease(owner=f"campaign:{self.spec.name}")
            # Trace-archive ownership is decided among the cells that
            # *execute* this invocation: store-resumed cells never run,
            # so a full-grid (or even in-shard) owner that resolved from
            # the manifest must not leave the archive unwritten.
            self._active_indices = frozenset(cell.index for cell in pending)
            from .supervisor import CampaignSupervisor, run_cells_serial

            if self.spec.workers <= 1 or len(pending) <= 1:
                if fault_plan is not None:
                    raise ValueError(
                        "a chaos fault plan needs a multi-worker run "
                        "(spec.workers > 1 with more than one pending "
                        "cell): crash/hang/truncate faults are contained "
                        "by worker processes"
                    )
                completed.update(run_cells_serial(self, pending))
            else:
                supervisor = CampaignSupervisor(self, fault_plan=fault_plan)
                completed.update(supervisor.run(pending))
            ordered = [completed[cell.index] for cell in cells]
        finally:
            self._active_indices = None
            if self.store is not None:
                self.store.release_lease()
        result = CampaignResult(
            spec=self.spec,
            cells=ordered,
            elapsed_s=time.perf_counter() - start,
            shard=shard,
            resumed=len(cells) - len(pending),
        )
        if self._artifact_dir is not None:
            result.save(self._artifact_dir)
        return result


def merge_campaign_results(results: Sequence[CampaignResult]
                           ) -> CampaignResult:
    """Fuse shard results into one full-grid :class:`CampaignResult`.

    All inputs must come from the same campaign physics (equal spec
    fragments up to execution-only fields — name, workers, trace
    archiving, retry/timeout knobs) and together cover the whole grid.
    Cells duplicated across shards are tolerated (the engine is
    deterministic, so duplicates are identical; the first occurrence
    wins) — except that a successfully computed duplicate always beats a
    ``failed`` quarantine row, so a cell that failed in one shard and
    succeeded in another (or on a retry run) merges clean.  Failed cells
    *count as coverage*: a degraded grid merges into a degraded result
    rather than an error, and rerunning the failed cells later upgrades
    it.  The merged ``elapsed_s`` is the slowest shard — the wall-clock
    of shards run in parallel.
    """
    if not results:
        raise ValueError("cannot merge zero campaign results")
    reference = spec_content_fragment(results[0].spec.to_dict())
    for result in results[1:]:
        if spec_content_fragment(result.spec.to_dict()) != reference:
            raise ValueError(
                "shard results disagree on the campaign spec; refusing to "
                "merge rows from different physics"
            )
    merged_cells: Dict[int, CampaignCellResult] = {}
    for result in results:
        for cell in result.cells:
            existing = merged_cells.get(cell.index)
            if existing is None or (existing.status != "ok"
                                    and cell.status == "ok"):
                merged_cells[cell.index] = cell
    spec = results[0].spec
    grid = spec.grid()
    missing = [cell.index for cell in grid
               if cell.index not in merged_cells]
    if missing:
        shown = ", ".join(str(index) for index in missing[:8])
        suffix = (f", … and {len(missing) - 8} more"
                  if len(missing) > 8 else "")
        raise ValueError(
            f"merged shards do not cover the campaign grid; "
            f"{len(missing)} missing cell indices: {shown}{suffix}"
        )
    return CampaignResult(
        spec=spec,
        cells=[merged_cells[cell.index] for cell in grid],
        elapsed_s=max(result.elapsed_s for result in results),
    )


def run_campaign(spec: CampaignSpec,
                 artifact_dir: Optional[PathLike] = None,
                 store: Union[None, Store, PathLike] = None
                 ) -> CampaignResult:
    """Convenience one-shot: build an engine and run the campaign."""
    return CampaignEngine(spec, store=store).run(artifact_dir=artifact_dir)
