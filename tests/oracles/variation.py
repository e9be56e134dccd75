"""Per-cell reference of the intra-die offset.

:func:`repro.variation.intra_die.die_offsets` seeds every cell of a die
in one bulk pass.  This is the per-cell definition it replaced: one
``np.random.default_rng`` per (die, cell) pair, built from the crc32 of
``f"{seed}:{cell}"``, whose first ``normal(0.0, 1.0)`` scales the
random component.  It takes the variation as its first argument.
"""

from __future__ import annotations

import zlib
from typing import Tuple

import numpy as np

from repro.variation.intra_die import IntraDieVariation


def cell_offset_ps(variation: IntraDieVariation, cell_name: str,
                   coord: Tuple[int, int]) -> float:
    """Delay offset of one cell placed at ``coord``.

    The random component is derived from a hash of the cell name and
    the die seed, so it is stable per (die, cell) pair.
    """
    spatial = variation.sigma_spatial_ps * variation.spatial_field(coord)
    cell_seed = zlib.crc32(f"{variation.seed}:{cell_name}".encode("utf-8"))
    random_part = float(
        np.random.default_rng(cell_seed).normal(0.0, 1.0)
    ) * variation.sigma_random_ps
    return spatial + random_part
