"""Power-distribution-network (PDN) coupling model.

The paper's key observation for the delay method is that a trojan does
not need to sit on a measured path to be detected: *"Even if no logical
connection exists between the design and the HT, both share the same
power grid inside the FPGA. These electric connections make the HT
detection easier."*

The model here is deliberately simple but physically motivated:

* the fabric is divided into rectangular PDN tiles, each fed by its own
  branch of the power grid with a small effective resistance;
* every placed cell draws a static (leakage + clock buffering) current
  and, when it switches, a dynamic current;
* the extra current drawn by trojan cells causes a voltage droop in the
  tiles they occupy, which decays with tile distance;
* a voltage droop slows every victim cell in proportion to the delay
  sensitivity ``d(delay)/dV`` of the technology.

The same spatial-aggregation machinery provides the EM probe coupling
weights (emanations from activity close to the probe are picked up more
strongly).

A trojan's droop on the golden cells is a pure function of the device,
the grid parameters and the two placements, and every die of a campaign
sees the same one, so :meth:`PowerGrid.victim_delay_offsets_ps` is
memoised per process in a bounded LRU cache keyed by ``(device,
tile_rows, tile_cols, tile_resistance_ohm, static_current_per_cell_ua,
delay_sensitivity_ps_per_mv, droop_decay_tiles,
tuple(victim_positions.items()), tuple(aggressor_positions.items()))``
and returns a read-only vector in victim order.  The device is a frozen
dataclass, so its name, rows and columns are part of the key.
:class:`PowerGrid` itself is mutable, so the key is read at call time.
A miss computes the offsets from :meth:`PowerGrid.droop_mv`, so a hit
returns exactly the floats a recomputation would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from .device import FPGADevice
from .slices import SliceCoord

#: Current drawn by one occupied trojan cell site, in microamperes.  This
#: aggregates leakage, the clock-tree load the extra flip-flops/LUTs add,
#: and the dynamic current of the dormant trigger inputs; it is calibrated
#: so that a trojan of a few tens of slices shifts nearby path delays by a
#: few hundred picoseconds, the magnitude the paper observes for nets that
#: are not logically connected to the trojan (Sec. III-B).
STATIC_CURRENT_PER_CELL_UA = 120.0
#: Effective PDN tile resistance, in ohms.
TILE_RESISTANCE_OHM = 2.0
#: Delay sensitivity to supply droop, in ps per millivolt, for a ~100 ps
#: 65 nm LUT stage (a few percent delay increase per percent of supply
#: droop, accumulated over the cells sharing the affected PDN tiles).
DELAY_SENSITIVITY_PS_PER_MV = 2.0
#: Spatial decay length of the droop coupling, in PDN tiles.
DROOP_DECAY_TILES = 1.5
#: Distinct (grid, victim placement, aggressor placement) droop offset
#: maps kept by the per-process memo.
_DROOP_MEMO_SIZE = 64


@dataclass
class PowerGrid:
    """PDN tile model over the slice grid.

    Parameters
    ----------
    device:
        The FPGA device.
    tile_rows, tile_cols:
        Size of one PDN tile in slices.
    """

    device: FPGADevice
    tile_rows: int = 10
    tile_cols: int = 10
    tile_resistance_ohm: float = TILE_RESISTANCE_OHM
    static_current_per_cell_ua: float = STATIC_CURRENT_PER_CELL_UA
    delay_sensitivity_ps_per_mv: float = DELAY_SENSITIVITY_PS_PER_MV
    droop_decay_tiles: float = DROOP_DECAY_TILES

    def __post_init__(self) -> None:
        if self.tile_rows <= 0 or self.tile_cols <= 0:
            raise ValueError("PDN tile dimensions must be positive")

    # -- tiling ------------------------------------------------------------

    def tile_of(self, coord: SliceCoord) -> Tuple[int, int]:
        """PDN tile index containing a slice coordinate."""
        row, col = coord
        if not self.device.contains(row, col):
            raise ValueError(f"slice {coord} outside device {self.device.name}")
        return (row // self.tile_rows, col // self.tile_cols)

    def tile_grid_shape(self) -> Tuple[int, int]:
        """Number of PDN tiles along each dimension."""
        rows = math.ceil(self.device.rows / self.tile_rows)
        cols = math.ceil(self.device.columns / self.tile_cols)
        return rows, cols

    def tile_distance(self, tile_a: Tuple[int, int], tile_b: Tuple[int, int]) -> float:
        """Euclidean distance between two PDN tiles."""
        return math.hypot(tile_a[0] - tile_b[0], tile_a[1] - tile_b[1])

    # -- droop computation ---------------------------------------------------

    def tile_currents_ua(self, cell_positions: Mapping[str, SliceCoord]
                         ) -> Dict[Tuple[int, int], float]:
        """Aggregate static current per PDN tile for the given placed cells."""
        currents: Dict[Tuple[int, int], float] = {}
        for coord in cell_positions.values():
            tile = self.tile_of(coord)
            currents[tile] = currents.get(tile, 0.0) + self.static_current_per_cell_ua
        return currents

    def droop_mv(self, aggressor_positions: Mapping[str, SliceCoord]
                 ) -> Dict[Tuple[int, int], float]:
        """Voltage droop (mV) per tile caused by the aggressor cells.

        The droop in a tile is the resistive drop of the current injected
        in that tile plus the exponentially decaying contribution of
        neighbouring tiles (shared PDN branches).
        """
        injected = self.tile_currents_ua(aggressor_positions)
        if not injected:
            return {}
        droop: Dict[Tuple[int, int], float] = {}
        tiles_rows, tiles_cols = self.tile_grid_shape()
        for row in range(tiles_rows):
            for col in range(tiles_cols):
                tile = (row, col)
                total = 0.0
                for source, current_ua in injected.items():
                    distance = self.tile_distance(tile, source)
                    weight = math.exp(-distance / self.droop_decay_tiles)
                    total += current_ua * weight
                # V = I * R; current in uA and R in ohm gives uV, convert to mV.
                droop[tile] = total * self.tile_resistance_ohm / 1000.0
        return droop

    def victim_delay_offsets_ps(self, victim_positions: Mapping[str, SliceCoord],
                                aggressor_positions: Mapping[str, SliceCoord]
                                ) -> np.ndarray:
        """Delay increase of each victim cell, in order, caused by
        aggressor-induced droop (the memo :func:`_victim_droop_offsets`)."""
        return _victim_droop_offsets(
            self.device, self.tile_rows, self.tile_cols,
            self.tile_resistance_ohm, self.static_current_per_cell_ua,
            self.delay_sensitivity_ps_per_mv, self.droop_decay_tiles,
            tuple(victim_positions.items()),
            tuple(aggressor_positions.items()),
        )

@functools.lru_cache(maxsize=_DROOP_MEMO_SIZE)
def _victim_droop_offsets(device: FPGADevice, tile_rows: int,
                          tile_cols: int, tile_resistance_ohm: float,
                          static_current_per_cell_ua: float,
                          delay_sensitivity_ps_per_mv: float,
                          droop_decay_tiles: float,
                          victims: Tuple[Tuple[str, SliceCoord], ...],
                          aggressors: Tuple[Tuple[str, SliceCoord], ...]
                          ) -> np.ndarray:
    """Read-only droop delay offset of each victim cell (memoised).

    ``victims`` and ``aggressors`` are the ``(cell name, coord)`` items
    of the two placements, in order.  ``cache_clear()`` empties the
    memo.
    """
    grid = PowerGrid(
        device, tile_rows=tile_rows, tile_cols=tile_cols,
        tile_resistance_ohm=tile_resistance_ohm,
        static_current_per_cell_ua=static_current_per_cell_ua,
        delay_sensitivity_ps_per_mv=delay_sensitivity_ps_per_mv,
        droop_decay_tiles=droop_decay_tiles,
    )
    droop = grid.droop_mv(dict(aggressors))
    offsets = np.array([droop.get(grid.tile_of(coord), 0.0)
                        * delay_sensitivity_ps_per_mv
                        for _, coord in victims])
    offsets.flags.writeable = False
    return offsets
