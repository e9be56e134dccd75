"""Intra-die (within-die) process-variation model.

The paper's delay model (Eq. 2) writes the delay of a net as a static
part plus ``dPV``, an arbitrary delay induced by intra-die process
variations.  Within-die variation has two classically recognised
components (Bowman et al., 2002):

* a **spatially correlated** component — neighbouring transistors see
  similar lithographic and doping conditions, so delay offsets vary
  smoothly across the die;
* an **uncorrelated (random)** component — per-device fluctuations.

:class:`IntraDieVariation` draws both components deterministically from
a seed, so a given physical die always presents the same intra-die
fingerprint, which is exactly what makes the golden-model comparison of
the paper meaningful.

Because an offset is a pure function of the die seed, the two sigmas,
the die extent and the cell's name and position, the per-die offset map
is memoised per process: :meth:`IntraDieVariation.offsets_for` looks it
up in a bounded LRU cache keyed by ``(seed, sigma_spatial_ps,
sigma_random_ps, die_rows, die_cols, tuple(cell_positions.items()))``.
Every device of a campaign that sits on the same die (its clean copy
and each infected copy share the golden placement) then reuses one map.
A miss computes every entry with :meth:`IntraDieVariation.cell_offset_ps`,
the single definition of an offset, so a hit returns exactly the floats
a recomputation would — the memo is bit-identical by construction.
Forked worker processes start from their parent's memo and fill their
own.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

#: Default standard deviation of the spatially correlated component (ps).
DEFAULT_SIGMA_SPATIAL_PS = 6.0
#: Default standard deviation of the random component (ps).
DEFAULT_SIGMA_RANDOM_PS = 4.0
#: Number of random low-frequency modes composing the spatial field.
_NUM_SPATIAL_MODES = 6
#: Distinct (die, placement) offset maps kept by the per-process memo.
_OFFSETS_MEMO_SIZE = 256


@dataclass
class IntraDieVariation:
    """Per-cell delay offsets for one die.

    Parameters
    ----------
    seed:
        Seed identifying the die; the same seed always produces the same
        variation field.
    sigma_spatial_ps, sigma_random_ps:
        Standard deviations of the two variation components.
    die_rows, die_cols:
        Extent of the die in slices, used to normalise the spatial field.
    """

    seed: int
    sigma_spatial_ps: float = DEFAULT_SIGMA_SPATIAL_PS
    sigma_random_ps: float = DEFAULT_SIGMA_RANDOM_PS
    die_rows: int = 80
    die_cols: int = 60
    _modes: Tuple[Tuple[float, float, float, float], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.sigma_spatial_ps < 0 or self.sigma_random_ps < 0:
            raise ValueError("variation sigmas must be non-negative")
        if self.die_rows <= 0 or self.die_cols <= 0:
            raise ValueError("die dimensions must be positive")
        rng = np.random.default_rng(self.seed)
        modes = []
        for _ in range(_NUM_SPATIAL_MODES):
            amplitude = float(rng.normal(0.0, 1.0))
            freq_row = float(rng.uniform(0.5, 2.0))
            freq_col = float(rng.uniform(0.5, 2.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            modes.append((amplitude, freq_row, freq_col, phase))
        # Normalise so the field has unit standard deviation in expectation.
        norm = math.sqrt(sum(m[0] ** 2 for m in modes) / 2.0) or 1.0
        self._modes = tuple((a / norm, fr, fc, p) for a, fr, fc, p in modes)

    # -- field evaluation ----------------------------------------------------

    def spatial_field(self, coord: Tuple[int, int]) -> float:
        """Value of the normalised spatially correlated field at ``coord``."""
        row, col = coord
        u = row / max(1, self.die_rows)
        v = col / max(1, self.die_cols)
        total = 0.0
        for amplitude, freq_row, freq_col, phase in self._modes:
            total += amplitude * math.cos(
                2.0 * math.pi * (freq_row * u + freq_col * v) + phase
            )
        return total

    def cell_offset_ps(self, cell_name: str, coord: Tuple[int, int]) -> float:
        """Delay offset of one cell placed at ``coord``.

        The random component is derived from a hash of the cell name and
        the die seed, so it is stable per (die, cell) pair.
        """
        spatial = self.sigma_spatial_ps * self.spatial_field(coord)
        # zlib.crc32 is stable across processes (unlike hash() on strings),
        # so a (die, cell) pair always gets the same random offset.
        cell_seed = zlib.crc32(f"{self.seed}:{cell_name}".encode("utf-8"))
        random_part = float(
            np.random.default_rng(cell_seed).normal(0.0, 1.0)
        ) * self.sigma_random_ps
        return spatial + random_part

    def offsets_for(self, cell_positions: Mapping[str, Tuple[int, int]]
                    ) -> Dict[str, float]:
        """Delay offsets for every placed cell of a design.

        The map is memoised per process on ``(seed, sigma_spatial_ps,
        sigma_random_ps, die_rows, die_cols,
        tuple(cell_positions.items()))`` (see :func:`die_offsets`), so
        each distinct die is computed once however many devices sit on
        it.  The result is a fresh ``dict`` the caller may mutate.
        """
        return dict(die_offsets(
            self.seed, self.sigma_spatial_ps, self.sigma_random_ps,
            self.die_rows, self.die_cols, tuple(cell_positions.items()),
        ))

    def total_sigma_ps(self) -> float:
        """Combined standard deviation of the per-cell offset."""
        return math.sqrt(self.sigma_spatial_ps ** 2 + self.sigma_random_ps ** 2)


@functools.lru_cache(maxsize=_OFFSETS_MEMO_SIZE)
def die_offsets(seed: int, sigma_spatial_ps: float, sigma_random_ps: float,
                die_rows: int, die_cols: int,
                placed: Tuple[Tuple[str, Tuple[int, int]], ...]
                ) -> Mapping[str, float]:
    """Read-only offset map of the cells ``placed`` on one die (memoised).

    ``placed`` is the ``(cell name, coord)`` items of a placement, in
    order.  Every offset comes from
    :meth:`IntraDieVariation.cell_offset_ps`, so the map equals the
    per-cell computation bit for bit.  ``die_offsets.cache_clear()``
    empties the memo.
    """
    variation = IntraDieVariation(
        seed=seed, sigma_spatial_ps=sigma_spatial_ps,
        sigma_random_ps=sigma_random_ps, die_rows=die_rows, die_cols=die_cols,
    )
    return MappingProxyType({
        name: variation.cell_offset_ps(name, coord) for name, coord in placed
    })
