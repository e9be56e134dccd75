"""Scalar AES encryption with per-round state tracing.

``repro.crypto.batch.BatchedAES`` encrypts whole ``(N, 16)`` stimulus
matrices in one NumPy pass per round; this is the block-at-a-time
cipher it replaced, walking ``bytes`` objects through SubBytes,
ShiftRows, MixColumns and AddRoundKey.  ``encrypt_trace`` records every
intermediate state, the per-round register transfers the batched round
states, the EM activity and the delay references are pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.crypto.gf import gf_mul_02, gf_mul_03
from repro.crypto.keyschedule import expand_key, key_length_to_rounds
from repro.crypto.sbox import SBOX
from repro.crypto.state import (
    BLOCK_BYTES,
    SHIFT_ROWS_PERM,
    validate_block,
    validate_key,
)


def xor_bytes(a: Sequence[int], b: Sequence[int]) -> bytes:
    """XOR two equal-length byte strings."""
    aa, bb = bytes(a), bytes(b)
    if len(aa) != len(bb):
        raise ValueError(f"length mismatch: {len(aa)} vs {len(bb)}")
    return bytes(x ^ y for x, y in zip(aa, bb))


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of differing bits between two equal-length byte strings."""
    return sum(bin(byte).count("1") for byte in xor_bytes(a, b))


def sub_bytes_block(block: Sequence[int]) -> bytes:
    """SubBytes on a flat 16-byte block."""
    return bytes(SBOX[b] for b in bytes(block))


def shift_rows_block(block: Sequence[int]) -> bytes:
    """ShiftRows on a flat 16-byte block (pure byte permutation)."""
    data = bytes(block)
    return bytes(data[SHIFT_ROWS_PERM[i]] for i in range(BLOCK_BYTES))


def mix_columns_block(block: Sequence[int]) -> bytes:
    """MixColumns on a flat 16-byte block (column-major layout)."""
    data = bytes(block)
    out = bytearray(BLOCK_BYTES)
    for col in range(4):
        a0, a1, a2, a3 = data[4 * col : 4 * col + 4]
        out[4 * col + 0] = gf_mul_02(a0) ^ gf_mul_03(a1) ^ a2 ^ a3
        out[4 * col + 1] = a0 ^ gf_mul_02(a1) ^ gf_mul_03(a2) ^ a3
        out[4 * col + 2] = a0 ^ a1 ^ gf_mul_02(a2) ^ gf_mul_03(a3)
        out[4 * col + 3] = gf_mul_03(a0) ^ a1 ^ a2 ^ gf_mul_02(a3)
    return bytes(out)


@dataclass
class RoundRecord:
    """Intermediate values of one AES round.

    ``state_in`` is the register content at the start of the round,
    ``state_out`` the register content latched at its end.  For the
    final round ``after_mix_columns`` equals ``after_shift_rows`` since
    MixColumns is skipped.
    """

    round_index: int
    state_in: bytes
    after_sub_bytes: bytes
    after_shift_rows: bytes
    after_mix_columns: bytes
    round_key: bytes
    state_out: bytes

    @property
    def switching_activity(self) -> int:
        """Hamming distance between the round's input and output registers."""
        return hamming_distance(self.state_in, self.state_out)


@dataclass
class EncryptionTrace:
    """Full record of one AES encryption: the initial AddRoundKey state
    (round 0) and one :class:`RoundRecord` per round 1..Nr."""

    plaintext: bytes
    key: bytes
    ciphertext: bytes
    initial_state: bytes
    rounds: List[RoundRecord] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def round(self, round_index: int) -> RoundRecord:
        """Return the record for 1-based ``round_index``."""
        if not 1 <= round_index <= len(self.rounds):
            raise ValueError(
                f"round_index must be in 1..{len(self.rounds)}, got {round_index}"
            )
        return self.rounds[round_index - 1]

    @property
    def last_round(self) -> RoundRecord:
        return self.rounds[-1]

    def switching_activities(self) -> List[int]:
        """Per-round register switching activity, including round 0.

        Element 0 is the Hamming distance between the plaintext and the
        state after the initial AddRoundKey; element ``r`` is the
        activity of round ``r``.
        """
        activities = [hamming_distance(self.plaintext, self.initial_state)]
        activities.extend(record.switching_activity for record in self.rounds)
        return activities


class AES:
    """AES block cipher (128/192/256-bit keys) with tracing support."""

    def __init__(self, key: Sequence[int]):
        self.key = validate_key(key)
        self.num_rounds = key_length_to_rounds(len(self.key))
        self.round_keys = expand_key(self.key)

    def encrypt(self, plaintext: Sequence[int]) -> bytes:
        """Encrypt one 16-byte block, without the per-round records."""
        state = validate_block(plaintext, "plaintext")
        state = xor_bytes(state, self.round_keys[0])
        for round_index in range(1, self.num_rounds + 1):
            state = shift_rows_block(sub_bytes_block(state))
            if round_index < self.num_rounds:
                state = mix_columns_block(state)
            state = xor_bytes(state, self.round_keys[round_index])
        return state

    def encrypt_trace(self, plaintext: Sequence[int]) -> EncryptionTrace:
        """Encrypt one block and record every intermediate state."""
        plaintext = validate_block(plaintext, "plaintext")
        state = xor_bytes(plaintext, self.round_keys[0])
        trace = EncryptionTrace(
            plaintext=plaintext,
            key=self.key,
            ciphertext=b"",
            initial_state=state,
        )
        for round_index in range(1, self.num_rounds + 1):
            state_in = state
            after_sub = sub_bytes_block(state_in)
            after_shift = shift_rows_block(after_sub)
            if round_index < self.num_rounds:
                after_mix = mix_columns_block(after_shift)
            else:
                after_mix = after_shift
            state = xor_bytes(after_mix, self.round_keys[round_index])
            trace.rounds.append(
                RoundRecord(
                    round_index=round_index,
                    state_in=state_in,
                    after_sub_bytes=after_sub,
                    after_shift_rows=after_shift,
                    after_mix_columns=after_mix,
                    round_key=self.round_keys[round_index],
                    state_out=state,
                )
            )
        trace.ciphertext = state
        return trace

    def last_round_key(self) -> bytes:
        """The final round key."""
        return self.round_keys[self.num_rounds]


def encrypt_block(key: Sequence[int], plaintext: Sequence[int]) -> bytes:
    """One-shot AES encryption of a single block."""
    return AES(key).encrypt(plaintext)
