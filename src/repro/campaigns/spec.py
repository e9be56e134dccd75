"""Declarative campaign specifications.

A *campaign* is a grid of detection scenarios swept in one go:

    (trojan names) x (die-population sizes) x (acquisition variants)
                   x (detection metrics)

:class:`CampaignSpec` describes the grid declaratively (and round-trips
through JSON so campaigns can be stored next to their results);
:func:`CampaignSpec.grid` expands it into :class:`GridCell` work items
the :class:`~repro.campaigns.engine.CampaignEngine` executes.  One cell
is one full population study — all trojans of the spec measured over one
die population under one acquisition configuration, scored with one
metric.  EM metrics run the Sec. V inter-die trace study; ``delay_*``
metrics run the Sec. III clock-glitch delay study across the same die
population through the compiled timing kernel (``num_pk_pairs`` (P, K)
stimuli, ``delay_repetitions`` repetitions).

Acquisition variants are expressed as dotted-path overrides applied on
top of the default :class:`~repro.measurement.em_simulator.EMAcquisitionConfig`,
e.g. ``{"noise.sigma_single_shot": 400.0, "oscilloscope.num_averages":
250}`` — every numeric field of the acquisition config (including the
nested probe/amplifier/oscilloscope/noise models) can be swept without
touching code.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..measurement.em_simulator import EMAcquisitionConfig
from ..stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT, campaign_stimuli
from ..trojan.library import TROJAN_SPECS

PathLike = Union[str, Path]

#: EM trace metrics (resolved by the engine's metric registry).
KNOWN_EM_METRICS = ("local_maxima_sum", "l1", "max_difference")

#: Delay-study metrics: a grid cell carrying one of these runs the
#: Sec. III clock-glitch campaign (through the compiled timing kernel)
#: across the die population instead of an EM acquisition.
KNOWN_DELAY_METRICS = ("delay_max_difference", "delay_mean_pair_max")

#: Fault-attack metrics: a grid cell carrying one of these runs a
#: glitch-grid fault-injection sweep (:mod:`repro.attacks`) across the
#: die population and scores each device by the fraction of
#: (grid point, stimulus) captures with at least one faulted byte.
KNOWN_FAULT_METRICS = ("fault_coverage",)

#: All metric names accepted by ``CampaignSpec.metrics``.
KNOWN_METRICS = KNOWN_EM_METRICS + KNOWN_DELAY_METRICS + KNOWN_FAULT_METRICS



def apply_em_overrides(config: EMAcquisitionConfig,
                       overrides: Mapping[str, Any]) -> EMAcquisitionConfig:
    """Return a copy of ``config`` with dotted-path overrides applied.

    ``"clock_frequency_mhz"`` targets the top-level config;
    ``"noise.sigma_single_shot"`` targets a field of a nested dataclass.
    Unknown paths raise ``ValueError`` so a typo in a spec fails loudly
    instead of silently sweeping nothing.
    """
    grouped: Dict[str, Dict[str, Any]] = {}
    flat: Dict[str, Any] = {}
    for path, value in overrides.items():
        head, _, rest = str(path).partition(".")
        if rest:
            grouped.setdefault(head, {})[rest] = value
        else:
            flat[head] = value
    field_names = {f.name for f in dataclasses.fields(config)}
    for name in list(flat) + list(grouped):
        if name not in field_names:
            raise ValueError(
                f"unknown acquisition config field {name!r}; available: "
                + ", ".join(sorted(field_names))
            )
    for head, nested_overrides in grouped.items():
        nested = getattr(config, head)
        if not dataclasses.is_dataclass(nested):
            raise ValueError(
                f"{head!r} is not a nested config, cannot apply "
                f"{sorted(nested_overrides)}"
            )
        nested_fields = {f.name for f in dataclasses.fields(nested)}
        unknown = set(nested_overrides) - nested_fields
        if unknown:
            raise ValueError(
                f"unknown field(s) {sorted(unknown)} in {head!r}; available: "
                + ", ".join(sorted(nested_fields))
            )
        flat[head] = dataclasses.replace(nested, **nested_overrides)
    return dataclasses.replace(config, **flat)


@dataclass(frozen=True)
class AcquisitionVariant:
    """One named point of the acquisition-configuration grid."""

    name: str
    em_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variant name must be non-empty")
        object.__setattr__(self, "em_overrides",
                           tuple((str(k), v) for k, v in
                                 dict(self.em_overrides).items()))

    @classmethod
    def make(cls, name: str,
             em_overrides: Optional[Mapping[str, Any]] = None
             ) -> "AcquisitionVariant":
        return cls(name=name,
                   em_overrides=tuple((em_overrides or {}).items()))

    def overrides_dict(self) -> Dict[str, Any]:
        return dict(self.em_overrides)

    def build_em_config(self) -> EMAcquisitionConfig:
        """The acquisition configuration of this variant."""
        return apply_em_overrides(EMAcquisitionConfig(),
                                  self.overrides_dict())


#: The unmodified paper bench.
DEFAULT_VARIANT = AcquisitionVariant(name="paper")


@dataclass(frozen=True)
class GridCell:
    """One executable cell of the campaign grid."""

    index: int
    num_dies: int
    variant: AcquisitionVariant
    metric: str

    @property
    def acquisition_key(self) -> Tuple[int, str]:
        """Cells sharing this key reuse the same acquired traces."""
        return (self.num_dies, self.variant.name)

    @property
    def is_delay(self) -> bool:
        """True if this cell runs the delay study rather than an EM one."""
        return self.metric in KNOWN_DELAY_METRICS

    @property
    def is_fault(self) -> bool:
        """True if this cell runs a glitch-grid fault-injection sweep."""
        return self.metric in KNOWN_FAULT_METRICS

    def describe(self) -> str:
        return (f"cell {self.index}: {self.num_dies} dies, "
                f"variant {self.variant.name!r}, metric {self.metric!r}")


@dataclass
class CampaignSpec:
    """Declarative description of a scenario-sweep campaign."""

    name: str = "campaign"
    trojans: Tuple[str, ...] = ("HT1", "HT2", "HT3")
    die_counts: Tuple[int, ...] = (8,)
    variants: Tuple[AcquisitionVariant, ...] = (DEFAULT_VARIANT,)
    metrics: Tuple[str, ...] = ("local_maxima_sum",)
    seed: int = 2015
    plaintext: bytes = DEFAULT_PLAINTEXT
    key: bytes = DEFAULT_KEY
    workers: int = 1
    save_traces: bool = False
    #: Fault-tolerance knobs of the supervised execution layer
    #: (:mod:`repro.campaigns.supervisor`).  Execution-only: they never
    #: enter content keys, so tuning them keeps the store warm.
    #: ``max_retries`` bounds retries *after* the first attempt of a
    #: cell; ``cell_timeout_s`` bounds one attempt's wall-clock in
    #: multi-worker runs (``None`` = no timeout); ``retry_backoff_s`` is
    #: the exponential-backoff base between attempts.
    max_retries: int = 2
    cell_timeout_s: Optional[float] = None
    retry_backoff_s: float = 0.5
    #: Delay-study campaign sizes (used by ``delay_*`` metric cells).
    num_pk_pairs: int = 4
    delay_repetitions: int = 3
    #: Stimulus diversity of the EM cells: 1 keeps the paper's fixed
    #: plaintext; N > 1 sweeps ``plaintext`` plus N - 1 seed-derived
    #: random plaintexts through the batched whole-stimulus kernel and
    #: scores each die on its stimulus-averaged trace.
    num_plaintexts: int = 1
    #: Glitch-grid axes of the fault-injection sweep cells
    #: (``fault_coverage`` metric): glitch offsets, pulse widths and
    #: nominal clock periods, in ps.  Empty tuples (the default) let the
    #: engine auto-calibrate the grid on the golden die's worst observed
    #: path, mirroring the delay sweeps' calibration.
    glitch_offsets_ps: Tuple[float, ...] = ()
    glitch_widths_ps: Tuple[float, ...] = ()
    glitch_periods_ps: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.trojans = tuple(self.trojans)
        self.die_counts = tuple(int(count) for count in self.die_counts)
        self.variants = tuple(self.variants)
        self.metrics = tuple(self.metrics)
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.trojans:
            raise ValueError("a campaign needs at least one trojan")
        unknown_trojans = [name for name in self.trojans
                           if name not in TROJAN_SPECS]
        if unknown_trojans:
            raise ValueError(
                f"unknown trojan(s) {unknown_trojans}; available: "
                + ", ".join(TROJAN_SPECS)
            )
        if not self.die_counts or min(self.die_counts) < 2:
            raise ValueError("die_counts must all be >= 2 (the population "
                             "detector needs at least two golden dies)")
        if not self.variants:
            raise ValueError("a campaign needs at least one variant")
        if len({variant.name for variant in self.variants}) != len(self.variants):
            raise ValueError("variant names must be unique")
        unknown = [m for m in self.metrics if m not in KNOWN_METRICS]
        if not self.metrics or unknown:
            raise ValueError(
                f"unknown metric(s) {unknown}; available: "
                + ", ".join(KNOWN_METRICS)
            )
        for field_name in ("trojans", "die_counts", "metrics"):
            values = getattr(self, field_name)
            if len(set(values)) != len(values):
                raise ValueError(f"{field_name} must not repeat an entry, "
                                 f"got {list(values)}")
        if len(self.plaintext) != 16:
            raise ValueError("plaintext must be 16 bytes")
        if len(self.key) not in (16, 24, 32):
            raise ValueError("key must be 16, 24 or 32 bytes")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.cell_timeout_s is not None:
            self.cell_timeout_s = float(self.cell_timeout_s)
            if self.cell_timeout_s <= 0:
                raise ValueError("cell_timeout_s must be positive (or None "
                                 "to disable the per-cell timeout)")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.num_pk_pairs < 1:
            raise ValueError("num_pk_pairs must be >= 1")
        if self.delay_repetitions < 1:
            raise ValueError("delay_repetitions must be >= 1")
        if self.num_plaintexts < 1:
            raise ValueError("num_plaintexts must be >= 1")
        for axis_name in ("glitch_offsets_ps", "glitch_widths_ps",
                          "glitch_periods_ps"):
            values = tuple(float(v) for v in getattr(self, axis_name))
            if values and min(values) <= 0:
                raise ValueError(f"{axis_name} must all be positive")
            setattr(self, axis_name, values)
        axes = (self.glitch_offsets_ps, self.glitch_widths_ps,
                self.glitch_periods_ps)
        if any(axes) and not all(axes):
            raise ValueError(
                "glitch grid axes must be given together (offsets, widths "
                "and periods) or all left empty for auto-calibration"
            )

    def stimulus_plaintexts(self) -> List[bytes]:
        """The EM stimulus set of this campaign.

        ``[plaintext]`` for the paper's fixed-stimulus scenario;
        otherwise ``plaintext`` followed by ``num_plaintexts - 1``
        random plaintexts derived deterministically from the campaign
        seed (growing ``num_plaintexts`` extends the set without
        reshuffling it).
        """
        return campaign_stimuli(self.num_plaintexts, self.seed,
                                first=self.plaintext)

    # -- grid expansion ----------------------------------------------------------

    def grid(self) -> List[GridCell]:
        """Expand the spec into its ordered list of grid cells.

        Delay and fault-sweep metrics are emitted once per die count
        (under the first variant): the clock-glitch bench is not
        configured by the EM acquisition overrides, so crossing those
        cells with every variant would only duplicate identical rows
        and, with a process pool, re-run identical measurements.
        """
        cells: List[GridCell] = []
        for num_dies in self.die_counts:
            for variant_index, variant in enumerate(self.variants):
                for metric in self.metrics:
                    if variant_index and metric not in KNOWN_EM_METRICS:
                        continue
                    cells.append(GridCell(
                        index=len(cells),
                        num_dies=num_dies,
                        variant=variant,
                        metric=metric,
                    ))
        return cells

    def num_cells(self) -> int:
        return len(self.grid())

    def shard(self, index: int, count: int) -> List[GridCell]:
        """Deterministic partition of the grid for multi-process/host runs.

        Cells are dealt round-robin by their *global* grid index
        (``cell.index % count == index``), so:

        * shards are pairwise **disjoint** and their union is **exactly**
          :meth:`grid` (every cell lands in one shard);
        * the partition is **deterministic** — equal specs give equal
          shards on every host;
        * cells keep their unsharded indices, so results merged from
          shard runs (:func:`repro.campaigns.engine.merge_campaign_results`)
          are row-for-row identical to a single unsharded run.

        Round-robin (rather than contiguous block) dealing spreads each
        (die count, variant) acquisition group over shards evenly, which
        balances wall-clock when die counts differ in cost.
        """
        count = int(count)
        index = int(index)
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= index < count:
            raise ValueError(
                f"shard index must be in [0, {count}), got {index}"
            )
        return [cell for cell in self.grid() if cell.index % count == index]

    # -- (de)serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trojans": list(self.trojans),
            "die_counts": list(self.die_counts),
            "variants": [
                {"name": variant.name,
                 "em_overrides": variant.overrides_dict()}
                for variant in self.variants
            ],
            "metrics": list(self.metrics),
            "seed": self.seed,
            "plaintext": self.plaintext.hex(),
            "key": self.key.hex(),
            "workers": self.workers,
            "save_traces": self.save_traces,
            "max_retries": self.max_retries,
            "cell_timeout_s": self.cell_timeout_s,
            "retry_backoff_s": self.retry_backoff_s,
            "num_pk_pairs": self.num_pk_pairs,
            "delay_repetitions": self.delay_repetitions,
            "num_plaintexts": self.num_plaintexts,
            "glitch_offsets_ps": list(self.glitch_offsets_ps),
            "glitch_widths_ps": list(self.glitch_widths_ps),
            "glitch_periods_ps": list(self.glitch_periods_ps),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        kwargs: Dict[str, Any] = dict(payload)
        # Specs written before the netlist kernel had a single
        # implementation carry an execution-only ``kernel_backend``;
        # it never entered content keys, so dropping it keeps stores warm.
        kwargs.pop("kernel_backend", None)
        if "variants" in kwargs:
            kwargs["variants"] = tuple(
                AcquisitionVariant.make(entry["name"],
                                        entry.get("em_overrides"))
                for entry in kwargs["variants"]
            )
        for key_name in ("plaintext", "key"):
            if isinstance(kwargs.get(key_name), str):
                kwargs[key_name] = bytes.fromhex(kwargs[key_name])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown campaign spec field(s) {sorted(unknown)}")
        return cls(**kwargs)

    def save(self, path: PathLike) -> Path:
        """Write the spec as JSON."""
        path = Path(path)
        if path.suffix != ".json":
            path = path.with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: PathLike) -> "CampaignSpec":
        """Load a spec previously written by :meth:`save` (or hand-written)."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"campaign spec {path} does not exist")
        return cls.from_dict(json.loads(path.read_text()))
