"""Floorplan regions on the slice grid.

The trojan-insertion flow of the paper keeps the genuine design's
placement and routing frozen and drops the trojan into *unused* slices.
To model that we need a notion of rectangular regions of the slice grid:
the region the AES occupies, and the free area around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .device import FPGADevice


@dataclass(frozen=True)
class Region:
    """A rectangular region of slices, inclusive of its bounds."""

    name: str
    row_min: int
    col_min: int
    row_max: int
    col_max: int

    def __post_init__(self) -> None:
        if self.row_min > self.row_max or self.col_min > self.col_max:
            raise ValueError(f"region {self.name!r} has inverted bounds")
        if self.row_min < 0 or self.col_min < 0:
            raise ValueError(f"region {self.name!r} has negative bounds")

    @property
    def rows(self) -> int:
        return self.row_max - self.row_min + 1

    @property
    def columns(self) -> int:
        return self.col_max - self.col_min + 1

    @property
    def slice_count(self) -> int:
        return self.rows * self.columns

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.row_min + self.row_max) / 2.0,
                (self.col_min + self.col_max) / 2.0)

    def iter_slices(self) -> Iterator[Tuple[int, int]]:
        for row in range(self.row_min, self.row_max + 1):
            for col in range(self.col_min, self.col_max + 1):
                yield (row, col)

    def overlaps(self, other: "Region") -> bool:
        return not (self.row_max < other.row_min or other.row_max < self.row_min
                    or self.col_max < other.col_min or other.col_max < self.col_min)


@dataclass(frozen=True)
class Floorplan:
    """The floorplan used by the reference AES design.

    ``aes_region`` hosts the genuine AES; ``free_regions`` are the areas
    whose slices are left unused by the genuine design and are therefore
    available to a foundry-inserted trojan.
    """

    device: FPGADevice
    aes_region: Region
    free_regions: Tuple[Region, ...]

    def validate(self) -> None:
        """Check that all regions fit the device and do not overlap the AES."""
        all_regions: List[Region] = [self.aes_region, *self.free_regions]
        for region in all_regions:
            if not (self.device.contains(region.row_min, region.col_min)
                    and self.device.contains(region.row_max, region.col_max)):
                raise ValueError(
                    f"region {region.name!r} does not fit device {self.device.name}"
                )
        for region in self.free_regions:
            if region.overlaps(self.aes_region):
                raise ValueError(
                    f"free region {region.name!r} overlaps the AES region"
                )

def default_floorplan(device: FPGADevice,
                      aes_utilisation: float = 0.3826) -> Floorplan:
    """Build the default floorplan: AES block in the lower-left corner.

    The AES occupies a rectangle sized to ``aes_utilisation`` of the
    device; the rest of the fabric is split into two free regions (the
    column band to the right of the AES and the row band above it).
    """
    if not 0.0 < aes_utilisation < 1.0:
        raise ValueError("aes_utilisation must be in (0, 1)")
    target_slices = device.total_slices * aes_utilisation
    aes_rows = min(device.rows, max(1, int(round(target_slices ** 0.5))))
    aes_cols = min(device.columns, max(1, int(round(target_slices / aes_rows))))
    aes_region = Region("aes", 0, 0, aes_rows - 1, aes_cols - 1)

    free_regions: List[Region] = []
    if aes_cols < device.columns:
        free_regions.append(
            Region("free_east", 0, aes_cols, device.rows - 1, device.columns - 1)
        )
    if aes_rows < device.rows:
        free_regions.append(
            Region("free_north", aes_rows, 0, device.rows - 1, aes_cols - 1)
        )
    plan = Floorplan(device=device, aes_region=aes_region,
                     free_regions=tuple(free_regions))
    plan.validate()
    return plan
