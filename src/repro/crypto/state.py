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

from typing import Iterable, List, Sequence

BLOCK_BYTES = 16
BLOCK_BITS = 128


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


def bit_of_block(block: Sequence[int], bit_index: int) -> int:
    """Return bit ``bit_index`` (0-based, MSB-first) of a 16-byte block."""
    data = validate_block(block)
    if not 0 <= bit_index < BLOCK_BITS:
        raise ValueError(f"bit_index must be in range(128), got {bit_index}")
    byte = data[bit_index // 8]
    return (byte >> (7 - (bit_index % 8))) & 1


def xor_bytes(a: Sequence[int], b: Sequence[int]) -> bytes:
    """XOR two equal-length byte strings."""
    aa, bb = bytes(a), bytes(b)
    if len(aa) != len(bb):
        raise ValueError(f"length mismatch: {len(aa)} vs {len(bb)}")
    return bytes(x ^ y for x, y in zip(aa, bb))


def hamming_weight(data: Sequence[int]) -> int:
    """Number of set bits across all bytes of ``data``."""
    return sum(bin(b).count("1") for b in bytes(data))


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of differing bits between two equal-length byte strings."""
    return hamming_weight(xor_bytes(a, b))


def differing_bits(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Indices (0-based, MSB-first) of bits that differ between ``a`` and ``b``."""
    aa, bb = bytes(a), bytes(b)
    if len(aa) != len(bb):
        raise ValueError(f"length mismatch: {len(aa)} vs {len(bb)}")
    bits_a = bytes_to_bits(aa)
    bits_b = bytes_to_bits(bb)
    return [i for i, (x, y) in enumerate(zip(bits_a, bits_b)) if x != y]


def bytes_to_state(block: Sequence[int]) -> List[List[int]]:
    """Convert a 16-byte block into the 4x4 column-major AES state matrix.

    ``state[row][col] = block[row + 4*col]`` per FIPS-197.
    """
    data = validate_block(block)
    return [[data[row + 4 * col] for col in range(4)] for row in range(4)]


def state_to_bytes(state: Sequence[Sequence[int]]) -> bytes:
    """Convert a 4x4 state matrix back into a 16-byte block."""
    if len(state) != 4 or any(len(row) != 4 for row in state):
        raise ValueError("state must be a 4x4 matrix")
    out = bytearray(BLOCK_BYTES)
    for row in range(4):
        for col in range(4):
            out[row + 4 * col] = state[row][col]
    return bytes(out)


def random_block(rng) -> bytes:
    """Draw a uniformly random 16-byte block from a numpy Generator."""
    return bytes(int(x) for x in rng.integers(0, 256, size=BLOCK_BYTES))


def random_key(rng, length: int = 16) -> bytes:
    """Draw a uniformly random AES key of ``length`` bytes."""
    if length not in (16, 24, 32):
        raise ValueError(f"key length must be 16, 24 or 32, got {length}")
    return bytes(int(x) for x in rng.integers(0, 256, size=length))


def chunked(data: Sequence[int], size: int) -> Iterable[bytes]:
    """Yield consecutive ``size``-byte chunks of ``data``."""
    data = bytes(data)
    if size <= 0:
        raise ValueError("chunk size must be positive")
    for offset in range(0, len(data), size):
        yield data[offset : offset + size]
