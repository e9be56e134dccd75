"""Deterministic placement of netlists onto the slice grid.

The genuine AES last-round circuit is placed into the AES floorplan
region in a column-major "packer" fashion: S-box cones are kept
together (cells are sorted by name, and generated names share a prefix
per cone), flip-flops go to the same slice as the LUT driving them when
possible.  The placement is deterministic given the netlist and the
region, which mirrors the paper's requirement that the genuine and
infected designs share the exact same placement of the original logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.cells import CellType
from ..netlist.netlist import Netlist
from .device import FPGADevice
from .floorplan import Region
from .slices import PlacementError, SliceCoord, SliceMap


@dataclass
class Placement:
    """Result of placing one netlist onto a device."""

    device: FPGADevice
    region: Region
    slice_map: SliceMap
    cell_positions: Dict[str, SliceCoord] = field(default_factory=dict)

    def occupied_slices(self) -> List[SliceCoord]:
        return sorted(self.slice_map.occupied_slices())

    def used_slice_count(self) -> int:
        return self.slice_map.used_slice_count()


class Placer:
    """Greedy column-major packer.

    Cells are processed in name order (generated netlists use
    per-cone prefixes, so cones stay contiguous) and packed into slices
    of ``region`` in row-major order, honouring LUT and FF capacity.
    """

    def __init__(self, device: FPGADevice):
        self.device = device

    def place(self, netlist: Netlist, region: Region,
              slice_map: Optional[SliceMap] = None,
              avoid: Optional[Sequence[SliceCoord]] = None) -> Placement:
        """Place every cell of ``netlist`` inside ``region``.

        Parameters
        ----------
        netlist:
            The netlist whose cells to place.
        region:
            Placement region (slices outside are never used).
        slice_map:
            Existing occupancy to extend (e.g. placing a trojan on top of
            an already-placed AES); a fresh map is created if omitted.
        avoid:
            Slice coordinates that must not be used even if free.
        """
        slice_map = slice_map if slice_map is not None else SliceMap(self.device)
        avoid_set = set(avoid or [])
        positions: Dict[str, SliceCoord] = {}

        candidate_slices = [coord for coord in region.iter_slices()
                            if coord not in avoid_set]
        if not candidate_slices:
            raise PlacementError(f"region {region.name!r} offers no usable slices")

        slice_cursor = 0

        def next_slice_with_capacity(needs_lut: bool, needs_ff: bool) -> SliceCoord:
            nonlocal slice_cursor
            probe = slice_cursor
            while probe < len(candidate_slices):
                coord = candidate_slices[probe]
                usage = slice_map.usage(coord)
                lut_ok = (not needs_lut
                          or usage.luts_used < self.device.luts_per_slice)
                ff_ok = (not needs_ff
                         or usage.ffs_used < self.device.ffs_per_slice)
                if lut_ok and ff_ok:
                    slice_cursor = probe
                    return coord
                probe += 1
            raise PlacementError(
                f"region {region.name!r} ran out of slices while placing "
                f"{netlist.name!r}"
            )

        for cell in sorted(netlist.cells.values(), key=lambda c: c.name):
            needs_lut = cell.cell_type in (
                CellType.LUT, CellType.XOR2, CellType.AND2, CellType.OR2,
                CellType.INV, CellType.BUF,
            )
            needs_ff = cell.cell_type == CellType.DFF
            if cell.cell_type in (CellType.CONST0, CellType.CONST1,
                                  CellType.MUX2):
                # Constants and F7/F8 muxes are free resources: co-locate
                # them with the previously placed cell when possible.
                if positions:
                    coord = positions[sorted(positions)[-1]]
                else:
                    coord = candidate_slices[0]
                slice_map.usage(coord).cells.append(cell.name)
                slice_map._cell_slice[cell.name] = coord
                positions[cell.name] = coord
                continue
            coord = next_slice_with_capacity(needs_lut, needs_ff)
            slice_map.place_cell(cell.name, coord,
                                 uses_lut=needs_lut, uses_ff=needs_ff)
            positions[cell.name] = coord

        return Placement(
            device=self.device,
            region=region,
            slice_map=slice_map,
            cell_positions=positions,
        )


def net_endpoints(netlist: Netlist, placement: Placement,
                  net: str) -> Tuple[Optional[SliceCoord], List[SliceCoord]]:
    """Driver and load slice coordinates of ``net`` under ``placement``.

    Primary inputs have no driver position (None).
    """
    driver = netlist.driver_of(net)
    driver_pos = (placement.cell_positions.get(driver.name)
                  if driver is not None else None)
    load_positions = [
        placement.cell_positions[load.name]
        for load in netlist.loads_of(net)
        if load.name in placement.cell_positions
    ]
    return driver_pos, load_positions
