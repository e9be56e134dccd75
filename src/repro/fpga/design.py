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
from typing import Dict, Optional

from ..netlist.aes_round_circuit import AESLastRoundCircuit
from ..netlist.netlist import Netlist
from .device import FPGADevice, aes_slice_budget, virtex5_lx30
from .floorplan import Floorplan, default_floorplan
from .placement import Placement, Placer
from .routing import Router


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

