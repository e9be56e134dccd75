"""Layout-preserving trojan insertion (the untrusted-foundry step).

Section II-A of the paper describes the insertion methodology: the
foundry receives the tape-out database, keeps the original placement and
routing untouched, and drops the trojan into unused LUTs and slices.
:func:`insert_trojan` reproduces that flow on the modelled design:

1. the golden design's placement is left strictly unchanged,
2. the trojan cells are placed into a free floorplan region (unused
   slices), as close to the AES block as the region allows,
3. every host net the trojan taps receives extra routing delay
   proportional to the stub length from the host logic to the trojan
   slice (the only physical change the paper's infected bitstream makes
   to the genuine nets).

The result, :class:`InfectedDesign`, exposes exactly what the
measurement models need: the extra net delays, the aggressor cell
positions for the power-grid coupling, and the trojan's activity model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fpga.design import GoldenDesign
from ..fpga.floorplan import Region
from ..fpga.placement import Placement, Placer, net_endpoints
from ..fpga.routing import added_tap_delay_ps
from ..fpga.slices import SliceCoord, manhattan_distance
from .base import HardwareTrojan

#: Extra routing delay per slice of stub length towards the trojan, in ps.
TAP_STUB_DELAY_PER_HOP_PS = 10.0


class InsertionError(Exception):
    """Raised when a trojan cannot be inserted into a design."""


@dataclass
class InfectedDesign:
    """A golden design with one inserted hardware trojan.

    The golden design object is shared, not copied: insertion does not
    modify it (matching the frozen placement-and-routing constraint).
    """

    golden: GoldenDesign
    trojan: HardwareTrojan
    trojan_placement: Placement
    tap_extra_delay_ps: Dict[str, float] = field(default_factory=dict)

    # -- geometry -----------------------------------------------------------

    def aggressor_positions(self) -> Dict[str, SliceCoord]:
        """Positions of the trojan cells (the PDN aggressors)."""
        return dict(self.trojan_placement.cell_positions)

    def trojan_slice_count(self) -> int:
        """Number of slices the inserted trojan occupies."""
        return self.trojan_placement.used_slice_count()

    def area_fraction_of_aes(self) -> float:
        """Trojan area as a fraction of the full AES area (paper metric)."""
        return self.golden.area_fraction_of_aes(self.trojan_slice_count())

    def area_fraction_of_device(self) -> float:
        """Trojan area as a fraction of the FPGA (paper's Sec. II metric)."""
        return self.golden.device.slice_fraction(self.trojan_slice_count())

    # -- sanity -----------------------------------------------------------------

    def verify_layout_preserved(self) -> None:
        """Check the insertion invariant: no golden cell moved, no overlap."""
        golden_slices = set(self.golden.placement.slice_map.occupied_slices())
        trojan_slices = set(self.trojan_placement.slice_map.occupied_slices()) \
            - golden_slices
        for cell, coord in self.trojan_placement.cell_positions.items():
            if coord in golden_slices:
                raise InsertionError(
                    f"trojan cell {cell!r} placed in an occupied golden slice {coord}"
                )
        if not trojan_slices and self.trojan_placement.cell_positions:
            raise InsertionError("trojan occupies no slice of its own")


def _closest_free_region(golden: GoldenDesign) -> Region:
    """Free region closest to the AES block (fallback when the AES region is full)."""
    free = golden.floorplan.free_regions
    if not free:
        raise InsertionError("floorplan has no free region to host a trojan")
    aes_center = golden.floorplan.aes_region.center
    return min(
        free,
        key=lambda region: abs(region.center[0] - aes_center[0])
        + abs(region.center[1] - aes_center[1]),
    )


def insert_trojan(golden: GoldenDesign, trojan: HardwareTrojan,
                  region: Optional[Region] = None,
                  stub_delay_per_hop_ps: float = TAP_STUB_DELAY_PER_HOP_PS
                  ) -> InfectedDesign:
    """Insert ``trojan`` into ``golden`` without touching the golden layout.

    Parameters
    ----------
    golden:
        The reference design.
    trojan:
        The trojan to insert (its netlist is placed, its taps connected).
    region:
        Region whose *unoccupied* slices host the trojan.  The default is
        the AES region itself — the paper's FPGA-Editor flow drops the
        trojan into the unused LUTs and slices left inside and around the
        placed design, which keeps it close to the nets it taps and to the
        shared power-grid segments.  Slices already used by the golden
        design are never touched.
    stub_delay_per_hop_ps:
        Routing-delay cost per slice of distance between a tapped host
        net and the trojan cell observing it.
    """
    region = region or golden.floorplan.aes_region
    occupied = sorted(golden.placement.slice_map.occupied_slices())

    placer = Placer(golden.device)
    try:
        trojan_placement = placer.place(trojan.netlist, region, avoid=occupied)
    except Exception:
        # The requested region has no room left: fall back to the nearest
        # explicitly free region of the floorplan.
        fallback = _closest_free_region(golden)
        trojan_placement = placer.place(trojan.netlist, fallback, avoid=occupied)
        region = fallback

    # Extra load on tapped host nets: one added input pin plus a stub route
    # from the host net's endpoints to the trojan cell observing it.
    tap_extra_delay: Dict[str, float] = {}
    host_nets = golden.netlist.nets()
    for host_net, tap_net in zip(trojan.tapped_host_nets, trojan.tap_input_nets):
        if host_net not in host_nets:
            raise InsertionError(
                f"trojan {trojan.name!r} taps unknown host net {host_net!r}"
            )
        observer_cells = [cell for cell in trojan.netlist.loads_of(tap_net)]
        observer_positions = [
            trojan_placement.cell_positions[cell.name]
            for cell in observer_cells
            if cell.name in trojan_placement.cell_positions
        ]
        driver_pos, load_positions = net_endpoints(
            golden.netlist, golden.placement, host_net
        )
        host_positions = [p for p in ([driver_pos] if driver_pos else [])
                          + load_positions if p is not None]
        if observer_positions and host_positions:
            stub = min(
                manhattan_distance(a, b)
                for a in host_positions for b in observer_positions
            )
        else:
            stub = 0
        tap_extra_delay[host_net] = (
            added_tap_delay_ps(extra_loads=max(1, len(observer_positions)))
            + stub * stub_delay_per_hop_ps
        )

    infected = InfectedDesign(
        golden=golden,
        trojan=trojan,
        trojan_placement=trojan_placement,
        tap_extra_delay_ps=tap_extra_delay,
    )
    infected.verify_layout_preserved()
    return infected
