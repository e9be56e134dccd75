"""The golden (trojan-free) reference design.

A :class:`GoldenDesign` bundles everything that defines the genuine
AES implementation as it leaves the trusted design house:

* the LUT-mapped last-round circuit (the timing-critical logic the
  clock-glitch measurement exercises),
* its placement into the AES floorplan region of a device,
* the routed per-net delays.

The trojan-insertion flow (:mod:`repro.trojan.insertion`) takes a golden
design and returns an infected variant that keeps the golden placement
and routing untouched — only extra cells in free slices and extra load
on tapped nets are added, mirroring the paper's FPGA-Editor methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..netlist.aes_round_circuit import AESLastRoundCircuit
from ..netlist.compiled import DEFAULT_NET_DELAY_PS
from ..netlist.netlist import Netlist
from .device import FPGADevice, aes_slice_budget, virtex5_lx30
from .floorplan import Floorplan, default_floorplan
from .placement import Placement, Placer
from .routing import Router
from .slices import SliceCoord


class HostDelays(NamedTuple):
    """What every delay annotation of a design starts from, in compiled
    order: each combinational cell's placement and intrinsic delay (the
    cells a timing engine reads) and each net's routed delay (the
    default without one), clamped at 0."""

    comb_positions: Dict[str, SliceCoord]
    intrinsic_ps: np.ndarray
    routed_ps: np.ndarray


@dataclass
class GoldenDesign:
    """The genuine AES design, placed and routed on a device."""

    device: FPGADevice
    floorplan: Floorplan
    circuit: AESLastRoundCircuit
    placement: Placement
    router: Router
    net_delays_ps: Dict[str, float] = field(default_factory=dict)

    @property
    def netlist(self) -> Netlist:
        """The structural netlist of the modelled (last-round) logic."""
        return self.circuit.netlist

    @cached_property
    def host_delays(self) -> HostDelays:
        """Computed once: a design is not edited after its build."""
        compiled = self.netlist.compiled()
        comb = compiled.comb_cell_names
        positions = self.placement.cell_positions
        routed = np.maximum(0.0, np.array(
            [self.net_delays_ps.get(net, DEFAULT_NET_DELAY_PS)
             for net in compiled.net_names]))
        routed.flags.writeable = False
        return HostDelays(
            {name: positions[name] for name in comb},
            np.array([self.netlist.cells[name].intrinsic_delay_ps()
                      for name in comb]),
            routed)

    @classmethod
    def build(cls, device: Optional[FPGADevice] = None,
              floorplan: Optional[Floorplan] = None,
              router: Optional[Router] = None) -> "GoldenDesign":
        """Build, place and route the golden design on ``device``.

        The construction is deterministic: two calls with the same
        arguments produce identical placements and net delays, which is
        what lets golden and infected designs share their layout.
        """
        device = device or virtex5_lx30()
        floorplan = floorplan or default_floorplan(device)
        floorplan.validate()
        router = router or Router()
        circuit = AESLastRoundCircuit.build()
        placer = Placer(device)
        placement = placer.place(circuit.netlist, floorplan.aes_region)
        net_delays = router.net_delays(circuit.netlist, placement)
        return cls(
            device=device,
            floorplan=floorplan,
            circuit=circuit,
            placement=placement,
            router=router,
            net_delays_ps=net_delays,
        )

    # -- area accounting -----------------------------------------------------

    def modelled_slice_count(self) -> int:
        """Slices occupied by the modelled last-round logic."""
        return self.placement.used_slice_count()

    def aes_total_slices(self) -> int:
        """Slices the *full* AES design occupies on this device.

        The reproduction models the last round structurally; the rest of
        the AES (the other nine rounds' logic share the same datapath,
        the key schedule, control) is accounted for through the paper's
        reported utilisation (38.26 % of the device), which this method
        returns in slices.  Trojan sizes are expressed relative to this
        figure, as in the paper.
        """
        return aes_slice_budget(self.device)

    def area_fraction_of_aes(self, slice_count: float) -> float:
        """Express a slice count as a fraction of the full AES area."""
        return slice_count / float(self.aes_total_slices())

