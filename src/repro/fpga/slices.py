"""Slice-level resource tracking.

A slice is the placement granule: it holds a handful of LUTs and
flip-flops.  :class:`SliceMap` tracks which LUT/FF sites of which slices
are occupied by which netlist cells, enforces capacity, and answers the
"which slices are unused?" question the trojan-insertion flow relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .device import FPGADevice

#: A slice coordinate on the fabric grid.
SliceCoord = Tuple[int, int]


class PlacementError(Exception):
    """Raised when a cell cannot be placed (capacity, bounds, duplicates)."""


@dataclass
class SliteSiteUsage:
    """Occupancy of one slice."""

    luts_used: int = 0
    ffs_used: int = 0
    cells: List[str] = field(default_factory=list)


@dataclass
class SliceMap:
    """Occupancy map of the slice grid for one placed design."""

    device: FPGADevice
    _usage: Dict[SliceCoord, SliteSiteUsage] = field(default_factory=dict)
    _cell_slice: Dict[str, SliceCoord] = field(default_factory=dict)

    def usage(self, coord: SliceCoord) -> SliteSiteUsage:
        """Occupancy record for one slice (created on demand)."""
        if coord not in self._usage:
            self._usage[coord] = SliteSiteUsage()
        return self._usage[coord]

    def place_cell(self, cell_name: str, coord: SliceCoord,
                   uses_lut: bool = True, uses_ff: bool = False) -> SliceCoord:
        """Place one cell on a slice, consuming LUT and/or FF sites."""
        row, col = coord
        if not self.device.contains(row, col):
            raise PlacementError(
                f"slice {coord} outside device {self.device.name}"
            )
        if cell_name in self._cell_slice:
            raise PlacementError(f"cell {cell_name!r} is already placed")
        record = self.usage(coord)
        if uses_lut and record.luts_used >= self.device.luts_per_slice:
            raise PlacementError(f"slice {coord} has no free LUT for {cell_name!r}")
        if uses_ff and record.ffs_used >= self.device.ffs_per_slice:
            raise PlacementError(f"slice {coord} has no free FF for {cell_name!r}")
        if uses_lut:
            record.luts_used += 1
        if uses_ff:
            record.ffs_used += 1
        record.cells.append(cell_name)
        self._cell_slice[cell_name] = coord
        return coord

    def occupied_slices(self) -> Set[SliceCoord]:
        """Slices hosting at least one cell."""
        return {coord for coord, usage in self._usage.items() if usage.cells}

    def used_slice_count(self) -> int:
        return len(self.occupied_slices())

def manhattan_distance(a: SliceCoord, b: SliceCoord) -> int:
    """Manhattan distance between two slice coordinates."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])
