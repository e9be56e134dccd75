"""Byte/bit/state manipulation helpers shared across the library.

AES-128 operates on a 16-byte state viewed as a 4x4 column-major matrix.
The measurement and detection code, however, mostly reasons about the
state as a flat vector of 128 *bits* (the paper's Fig. 3 X-axis is a bit
number in [1, 128]).  This module centralises the conversions so that
the bit numbering is consistent everywhere:

* bytes are numbered 0..15 in the order they appear on the AES input
  (i.e. FIPS-197 ``in[0..15]``, column-major state),
* bit ``i`` of the 128-bit vector is bit ``7 - (i % 8)``... no — we use
  the simple convention that bit index ``i`` (0-based) corresponds to
  byte ``i // 8`` and bit ``7 - (i % 8)`` within that byte, i.e. the
  most-significant bit of byte 0 is bit 0.  The paper plots bits 1..128;
  our APIs are 0-based and the experiment drivers add 1 when labelling.
"""

from __future__ import annotations

from typing import List, Sequence

BLOCK_BYTES = 16
BLOCK_BITS = 128

# Byte index permutation implementing ShiftRows on the flat (column-major)
# 16-byte block: output[i] = input[SHIFT_ROWS_PERM[i]].
SHIFT_ROWS_PERM = (0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)


def _invert_permutation(perm: Sequence[int]) -> "tuple[int, ...]":
    """Invert a permutation in one linear scan (no quadratic ``.index``)."""
    inverse = [0] * len(perm)
    for position, value in enumerate(perm):
        inverse[value] = position
    return tuple(inverse)


INV_SHIFT_ROWS_PERM = _invert_permutation(SHIFT_ROWS_PERM)


def validate_block(data: Sequence[int], name: str = "block") -> bytes:
    """Validate and normalise a 16-byte block to ``bytes``."""
    block = bytes(data)
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"{name} must be {BLOCK_BYTES} bytes, got {len(block)}")
    return block


def validate_key(data: Sequence[int], name: str = "key") -> bytes:
    """Validate an AES key (128, 192 or 256 bits)."""
    key = bytes(data)
    if len(key) not in (16, 24, 32):
        raise ValueError(
            f"{name} must be 16, 24 or 32 bytes, got {len(key)}"
        )
    return key


def bytes_to_bits(data: Sequence[int]) -> List[int]:
    """Expand bytes into a flat list of bits, MSB of byte 0 first."""
    bits: List[int] = []
    for byte in bytes(data):
        for position in range(7, -1, -1):
            bits.append((byte >> position) & 1)
    return bits


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack a flat bit list (MSB-first per byte) back into bytes."""
    if len(bits) % 8 != 0:
        raise ValueError(f"bit count must be a multiple of 8, got {len(bits)}")
    out = bytearray()
    for offset in range(0, len(bits), 8):
        byte = 0
        for bit in bits[offset : offset + 8]:
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {bit}")
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out)
