"""Device-under-test (DUT) abstraction.

A DUT is the combination the measurement bench actually probes: one
*design* (golden, or infected with a specific trojan) programmed into
one *physical die* (with its inter- and intra-die process variations).
The paper's experiments are all sweeps over DUTs:

* Sec. III: golden and two infected designs, one die, many (P, K) pairs;
* Sec. IV: golden and infected designs, one die, fixed plaintext;
* Sec. V: four designs x eight dies, fixed plaintext.

:class:`DeviceUnderTest` lazily builds the timing annotation for its
(design, die) combination so that the delay meter and the EM simulator
see a consistent physical model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from ..fpga.annotation import build_delay_annotation
from ..fpga.design import GoldenDesign
from ..fpga.power_grid import PowerGrid
from ..netlist.aes_round_circuit import AESLastRoundCircuit
from ..netlist.compiled import DelayVectors
from ..netlist.netlist import Netlist
from ..trojan.base import HardwareTrojan
from ..trojan.insertion import InfectedDesign
from ..variation.inter_die import DieProfile
from ..variation.intra_die import IntraDieVariation

#: Either a golden or an infected design can be programmed into a die.
Design = Union[GoldenDesign, InfectedDesign]


@dataclass
class DeviceUnderTest:
    """One design programmed into one physical die.

    Parameters
    ----------
    design:
        :class:`GoldenDesign` or :class:`InfectedDesign`.
    die:
        The physical die profile (inter- and intra-die variation).
        ``None`` means a nominal die with no process variation at all
        (useful in tests).
    label:
        Human-readable identifier used in reports ("Clean1", "HTcomb"...).
    annotation_cache:
        A dict shared by DUTs (a platform passes one to every DUT it
        makes): the delay annotation (read-only vectors) of a (design,
        die) is built by the first of them to need it and reused by the
        rest.  Only the annotation is shared, never measurement state.
    """

    design: Design
    die: Optional[DieProfile] = None
    label: str = ""
    annotation_cache: Optional[Dict[Tuple[Any, ...], DelayVectors]] = \
        field(default=None, repr=False, compare=False)
    _annotation: Optional[DelayVectors] = field(default=None, init=False,
                                                repr=False)

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self._default_label()

    def _default_label(self) -> str:
        if self.is_infected:
            name = self.trojan.name if self.trojan else "HT"
            suffix = f"_die{self.die.die_id}" if self.die else ""
            return f"{name}{suffix}"
        suffix = f"_die{self.die.die_id}" if self.die else ""
        return f"golden{suffix}"

    # -- design structure ------------------------------------------------------

    @property
    def is_infected(self) -> bool:
        """True if the DUT hosts a trojan."""
        return isinstance(self.design, InfectedDesign)

    @property
    def golden(self) -> GoldenDesign:
        """The underlying golden design (shared by infected designs)."""
        if isinstance(self.design, InfectedDesign):
            return self.design.golden
        return self.design

    @property
    def trojan(self) -> Optional[HardwareTrojan]:
        """The inserted trojan, if any."""
        if isinstance(self.design, InfectedDesign):
            return self.design.trojan
        return None

    @property
    def infected(self) -> Optional[InfectedDesign]:
        """The infected design, if any."""
        return self.design if isinstance(self.design, InfectedDesign) else None

    @property
    def circuit(self) -> AESLastRoundCircuit:
        """The last-round circuit of the host design."""
        return self.golden.circuit

    @property
    def netlist(self) -> Netlist:
        """The host netlist (the trojan netlist is kept separate)."""
        return self.golden.netlist

    # -- physical model ---------------------------------------------------------

    def intra_die_variation(self) -> Optional[IntraDieVariation]:
        """The intra-die variation field of this DUT's die."""
        if self.die is None:
            return None
        device = self.golden.device
        return IntraDieVariation(
            seed=self.die.intra_die_seed,
            die_rows=device.rows,
            die_cols=device.columns,
        )

    def delay_annotation(self) -> DelayVectors:
        """Timing annotation of this (design, die) combination (cached)."""
        # The cache's owner keeps every design alive, so ids are unique.
        key, cache = (id(self.design), self.die), self.annotation_cache
        if self._annotation is None and cache is not None:
            self._annotation = cache.get(key)
        if self._annotation is None:
            infected = self.infected
            self._annotation = build_delay_annotation(
                self.golden,
                die=self.die,
                intra_die=self.intra_die_variation(),
                extra_net_delays_ps=infected and infected.tap_extra_delay_ps,
                aggressor_positions=(infected
                                     and infected.aggressor_positions()),
                power_grid=PowerGrid(self.golden.device),
            )
            if cache is not None:
                cache[key] = self._annotation
        return self._annotation

    def em_gain(self) -> float:
        """Die-dependent EM emission gain."""
        return self.die.em_gain if self.die is not None else 1.0

    def em_offset(self) -> float:
        """Die-dependent EM baseline offset."""
        return self.die.em_offset if self.die is not None else 0.0
