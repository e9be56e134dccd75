"""Vectorised AES kernel: whole stimulus batches in NumPy array passes.

Campaigns sweep hundreds of random plaintexts underneath every (die,
trojan, metric) cell, so the package's one AES implementation encrypts
an ``(N, 16)`` uint8 matrix of plaintexts in **one NumPy pass per
round**:

* SubBytes is a single S-box LUT gather over the whole state matrix;
* ShiftRows is a column permutation (fancy index with
  :data:`~repro.crypto.state.SHIFT_ROWS_PERM`);
* MixColumns works on the ``(N, 4, 4)`` column-major view through the
  GF(2^8) multiplication tables ``{02, 03}`` (XOR of LUT gathers);
* the key schedule is expanded once per key (optionally once per *row*,
  for campaigns whose stimuli carry their own keys) and broadcast.

The kernel also returns the quantities the measurement substrate feeds
on: the full register-state tensor ``(N, Nr + 2, 16)`` — plaintext,
state after the initial AddRoundKey, then one row per round — and the
per-round switching activities via a packed popcount LUT.

Everything here is **bit-identical** to the block-at-a-time FIPS-197
cipher with per-round tracing in ``tests/oracles/aes.py`` (XOR and
gather have no rounding), the serial reference the equivalence tests
compare against — the same contract as
:meth:`~repro.measurement.em_simulator.EMSimulator.acquire_many_batch_tensor` and
the compiled netlist kernel.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .gf import gf_mul_02, gf_mul_03
from .keyschedule import expand_key, key_length_to_rounds
from .sbox import SBOX
from .state import BLOCK_BYTES, SHIFT_ROWS_PERM, validate_key

#: Forward S-box as a gatherable uint8 LUT.
SBOX_TABLE = np.array(SBOX, dtype=np.uint8)

#: GF(2^8) multiplication-by-0x02/0x03 LUTs (MixColumns).
MUL2_TABLE = np.array([gf_mul_02(x) for x in range(256)], dtype=np.uint8)
MUL3_TABLE = np.array([gf_mul_03(x) for x in range(256)], dtype=np.uint8)

#: ShiftRows as a gather index over the flat column-major 16-byte block.
SHIFT_ROWS_INDEX = np.array(SHIFT_ROWS_PERM, dtype=np.intp)

#: Per-byte popcount LUT (switching-activity counting).
POPCOUNT_TABLE = np.array([bin(x).count("1") for x in range(256)],
                          dtype=np.uint8)

#: Anything accepted as a batch of blocks: an ``(N, 16)`` array or a
#: sequence of 16-byte blocks.
BlockBatch = Union[np.ndarray, Sequence[Sequence[int]]]


def as_block_matrix(blocks: BlockBatch, name: str = "blocks") -> np.ndarray:
    """Normalise a batch of 16-byte blocks to an ``(N, 16)`` uint8 matrix."""
    if isinstance(blocks, np.ndarray):
        matrix = np.ascontiguousarray(blocks, dtype=np.uint8)
    else:
        matrix = np.array([list(bytes(block)) for block in blocks],
                          dtype=np.uint8)
        if matrix.size == 0:
            matrix = matrix.reshape(0, BLOCK_BYTES)
    if matrix.ndim != 2 or matrix.shape[1] != BLOCK_BYTES:
        raise ValueError(
            f"{name} must be (N, {BLOCK_BYTES}), got {matrix.shape}"
        )
    return matrix


def expand_keys(keys: Union[Sequence[int], Sequence[Sequence[int]]]
                ) -> np.ndarray:
    """Round keys for one key or one key per row.

    ``keys`` is either a single AES key (16/24/32 bytes) or a sequence of
    keys of one common length.  Returns an ``(M, Nr + 1, 16)`` uint8
    tensor (``M = 1`` for a single key) ready to broadcast over a
    plaintext batch.
    """
    if isinstance(keys, (bytes, bytearray)) or (
            len(keys) > 0 and isinstance(keys[0], (int, np.integer))):
        key_list = [validate_key(keys)]
    else:
        key_list = [validate_key(key) for key in keys]
        if not key_list:
            raise ValueError("at least one key is required")
    lengths = {len(key) for key in key_list}
    if len(lengths) != 1:
        raise ValueError(
            f"all keys of a batch must share one length, got {sorted(lengths)}"
        )
    return np.array(
        [[list(round_key) for round_key in expand_key(key)]
         for key in key_list],
        dtype=np.uint8,
    )


def mix_columns_batch(states: np.ndarray) -> np.ndarray:
    """MixColumns over an ``(N, 16)`` column-major state matrix."""
    columns = states.reshape(-1, 4, 4)
    a0 = columns[:, :, 0]
    a1 = columns[:, :, 1]
    a2 = columns[:, :, 2]
    a3 = columns[:, :, 3]
    out = np.empty_like(columns)
    out[:, :, 0] = MUL2_TABLE[a0] ^ MUL3_TABLE[a1] ^ a2 ^ a3
    out[:, :, 1] = a0 ^ MUL2_TABLE[a1] ^ MUL3_TABLE[a2] ^ a3
    out[:, :, 2] = a0 ^ a1 ^ MUL2_TABLE[a2] ^ MUL3_TABLE[a3]
    out[:, :, 3] = MUL3_TABLE[a0] ^ a1 ^ a2 ^ MUL2_TABLE[a3]
    return out.reshape(states.shape)


def round_states_with_keys(plaintexts: np.ndarray, round_keys: np.ndarray
                           ) -> np.ndarray:
    """Core round loop over pre-expanded ``(M, Nr + 1, 16)`` round keys
    (one key for every row, or one per row); see
    :meth:`BatchedAES.round_states` for the layout."""
    num_blocks = plaintexts.shape[0]
    if round_keys.shape[0] not in (1, num_blocks):
        raise ValueError(
            f"got {round_keys.shape[0]} keys for {num_blocks} plaintexts"
        )
    num_rounds = round_keys.shape[1] - 1
    states = np.empty((num_blocks, num_rounds + 2, BLOCK_BYTES),
                      dtype=np.uint8)
    states[:, 0] = plaintexts
    state = plaintexts ^ round_keys[:, 0]
    states[:, 1] = state
    for round_index in range(1, num_rounds + 1):
        state = SBOX_TABLE[state][:, SHIFT_ROWS_INDEX]
        if round_index < num_rounds:
            state = mix_columns_batch(state)
        state = state ^ round_keys[:, round_index]
        states[:, round_index + 1] = state
    return states


def switching_activity_counts(round_states: np.ndarray) -> np.ndarray:
    """Per-round register switching activity of a round-state tensor.

    ``round_states`` is the ``(N, C + 1, 16)`` tensor of
    :meth:`BatchedAES.round_states`; the result is the ``(N, C)`` int64
    matrix of Hamming distances between consecutive register states —
    column 0 is the load transition (plaintext to initial state), column
    ``r`` the activity of round ``r``.
    """
    if round_states.ndim != 3 or round_states.shape[2] != BLOCK_BYTES:
        raise ValueError(
            f"round_states must be (N, cycles + 1, {BLOCK_BYTES}), got "
            f"{round_states.shape}"
        )
    toggled = round_states[:, 1:] ^ round_states[:, :-1]
    return POPCOUNT_TABLE[toggled].sum(axis=2, dtype=np.int64)


class BatchedAES:
    """AES over plaintext batches with one expanded key.

    Parameters
    ----------
    key:
        The cipher key (16, 24 or 32 bytes).
    """

    def __init__(self, key: Sequence[int]):
        self.key = validate_key(key)
        self.num_rounds = key_length_to_rounds(len(self.key))
        self.round_keys = expand_keys(self.key)

    def round_states(self, plaintexts: BlockBatch) -> np.ndarray:
        """Register-state tensor of a whole encryption batch.

        ``(N, Nr + 2, 16)`` uint8: row 0 is the plaintext (the register
        content at load), row 1 the state after the initial
        AddRoundKey, row ``r + 1`` the register content latched at the
        end of round ``r``.  The ciphertext is the last row.
        """
        return round_states_with_keys(
            as_block_matrix(plaintexts, "plaintexts"), self.round_keys
        )
