"""AES key expansion (FIPS-197, Sec. 5.2).

The key schedule is needed in three places:

* the batched AES kernel (:mod:`repro.crypto.batch`),
* the last-round gate-level circuit, which consumes the round-10 key,
* differential analysis in the delay meter, which needs to know the
  round-10 key to map faulted ciphertext bits back to round-10 inputs.
"""

from __future__ import annotations

from typing import List, Sequence

from .gf import xtime
from .sbox import SBOX
from .state import validate_key

#: Number of 32-bit words in the state (always 4 for AES).
NB = 4


def _rcon(i: int) -> int:
    """Round constant ``Rcon[i]`` (the x^(i-1) power in GF(2^8))."""
    if i < 1:
        raise ValueError("Rcon index starts at 1")
    value = 1
    for _ in range(i - 1):
        value = xtime(value)
    return value


def _sub_word(word: Sequence[int]) -> List[int]:
    return [SBOX[b] for b in word]


def _rot_word(word: Sequence[int]) -> List[int]:
    return list(word[1:]) + [word[0]]


def key_length_to_rounds(key_length: int) -> int:
    """Number of rounds Nr for a key of ``key_length`` bytes."""
    rounds = {16: 10, 24: 12, 32: 14}.get(key_length)
    if rounds is None:
        raise ValueError(f"unsupported key length {key_length}")
    return rounds


def expand_key(key: Sequence[int]) -> List[bytes]:
    """Expand ``key`` into the list of round keys.

    Returns ``Nr + 1`` round keys of 16 bytes each (round key 0 is the
    cipher key itself for AES-128).
    """
    key = validate_key(key)
    nk = len(key) // 4
    nr = key_length_to_rounds(len(key))
    words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]

    for i in range(nk, NB * (nr + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = _sub_word(_rot_word(temp))
            temp[0] ^= _rcon(i // nk)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append([a ^ b for a, b in zip(words[i - nk], temp)])

    round_keys: List[bytes] = []
    for round_index in range(nr + 1):
        chunk = words[NB * round_index : NB * (round_index + 1)]
        round_keys.append(bytes(b for word in chunk for b in word))
    return round_keys


def last_round_key(key: Sequence[int]) -> bytes:
    """Convenience accessor for the final round key (round Nr)."""
    return expand_key(key)[-1]


def round_key(key: Sequence[int], round_index: int) -> bytes:
    """Round key for ``round_index`` (0 = initial AddRoundKey)."""
    keys = expand_key(key)
    if not 0 <= round_index < len(keys):
        raise ValueError(
            f"round_index must be in range({len(keys)}), got {round_index}"
        )
    return keys[round_index]
