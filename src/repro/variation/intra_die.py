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
the die extent and the cell's name and position, the per-die offsets
are memoised per process: :meth:`IntraDieVariation.offsets_for` returns
the read-only vector (in ``cell_positions`` order) of a bounded LRU
cache keyed by ``(seed, sigma_spatial_ps, sigma_random_ps, die_rows,
die_cols, tuple(cell_positions.items()))``.  The delay annotation asks
for the host's combinational cells in compiled order, the only cells a
timing engine reads.  Every device of a campaign that sits on the same
die (its clean copy and each infected copy share the golden placement)
then reuses one vector.  Forked worker processes start from their
parent's memo and fill their own.

A cell's random component is one ``normal(0.0, 1.0)`` draw from
``np.random.default_rng(crc32(f"{seed}:{cell}"))``.  Building one
generator per cell costs far more than the draw, so a miss seeds every
cell of the die in one bulk pass (:func:`_pcg64_states`): NumPy's
documented ``SeedSequence`` hash over ``uint32`` arrays, then the PCG64
seeding step on Python ints.  Each state is loaded into one reused
``PCG64`` whose own ``normal`` makes the draw, so every offset equals
the per-cell ``default_rng`` computation bit for bit (NEP 19 keeps both
algorithms stable across NumPy releases).  That per-cell definition
lives in ``tests/oracles/variation.py`` as the serial reference the
bulk pass is tested against.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Default standard deviation of the spatially correlated component (ps).
DEFAULT_SIGMA_SPATIAL_PS = 6.0
#: Default standard deviation of the random component (ps).
DEFAULT_SIGMA_RANDOM_PS = 4.0
#: Number of random low-frequency modes composing the spatial field.
_NUM_SPATIAL_MODES = 6
#: Distinct (die, placement) offset maps kept by the per-process memo.
_OFFSETS_MEMO_SIZE = 256

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and the PCG64 multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


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

    def offsets_for(self, cell_positions: Mapping[str, Tuple[int, int]]
                    ) -> np.ndarray:
        """Read-only delay offsets of the given placed cells, in their
        order, memoised per die and placement (:func:`die_offsets`)."""
        return die_offsets(
            self.seed, self.sigma_spatial_ps, self.sigma_random_ps,
            self.die_rows, self.die_cols, tuple(cell_positions.items()),
        )

def _pcg64_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """The ``(state, inc)`` that ``np.random.default_rng(seed)`` starts
    its PCG64 from, for every ``uint32`` seed at once.

    ``SeedSequence(seed)`` mixes the one-word entropy into a pool of
    four words and expands it with ``generate_state(4, np.uint64)``;
    both steps run over ``uint32`` arrays, one lane per seed.  PCG64
    then takes ``initstate = w0 << 64 | w1`` and ``inc = (w2 << 64 |
    w3) << 1 | 1`` and advances twice from zero, which leaves
    ``(inc + initstate) * multiplier + inc`` modulo 2^128.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    entropy = np.asarray(seeds, dtype=np.uint32)
    zero = np.zeros_like(entropy)
    pool = [hashmix(entropy)] + [hashmix(zero) for _ in range(_POOL_SIZE - 1)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[i_dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[i_src]))
                pool[i_dst] = mixed ^ (mixed >> _XSHIFT)

    hash_const = _INIT_B
    words32 = []
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words32.append(value ^ (value >> _XSHIFT))
    # Little-endian pairs of uint32 words make the four uint64 words.
    words64 = [
        (words32[2 * k].astype(np.uint64)
         | (words32[2 * k + 1].astype(np.uint64) << np.uint64(32))).tolist()
        for k in range(_POOL_SIZE)
    ]
    states = []
    for w0, w1, w2, w3 in zip(*words64):
        initstate = w0 << 64 | w1
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append((((inc + initstate) * _PCG64_MULTIPLIER + inc)
                       & _MASK128, inc))
    return states


@functools.lru_cache(maxsize=_OFFSETS_MEMO_SIZE)
def die_offsets(seed: int, sigma_spatial_ps: float, sigma_random_ps: float,
                die_rows: int, die_cols: int,
                placed: Tuple[Tuple[str, Tuple[int, int]], ...]
                ) -> np.ndarray:
    """Read-only offset vector of the cells ``placed`` on one die (memoised).

    ``placed`` is the ``(cell name, coord)`` items of a placement, in
    order.  Each offset is ``sigma_spatial_ps * spatial_field(coord) +
    draw * sigma_random_ps``, where ``draw`` is the first
    ``normal(0.0, 1.0)`` of ``np.random.default_rng(crc32(
    f"{seed}:{cell name}"))``; the generators are seeded in one bulk
    pass (:func:`_pcg64_states`) and bit-identical to that.
    ``die_offsets.cache_clear()`` empties the memo.
    """
    variation = IntraDieVariation(
        seed=seed, sigma_spatial_ps=sigma_spatial_ps,
        sigma_random_ps=sigma_random_ps, die_rows=die_rows, die_cols=die_cols,
    )
    # zlib.crc32 is stable across processes (unlike hash() on strings),
    # so a (die, cell) pair always gets the same random offset.
    states = _pcg64_states([zlib.crc32(f"{seed}:{name}".encode("utf-8"))
                            for name, _ in placed])
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    # Several cells share a slice, so each coordinate's field is
    # evaluated once.
    fields: Dict[Tuple[int, int], float] = {}
    offsets = np.empty(len(placed))
    for index, ((_, coord), (state, inc)) in enumerate(zip(placed, states)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        draw = float(generator.normal(0.0, 1.0))
        if coord not in fields:
            fields[coord] = variation.spatial_field(coord)
        offsets[index] = (sigma_spatial_ps * fields[coord]
                          + draw * sigma_random_ps)
    offsets.flags.writeable = False
    return offsets
