"""The S-box as FIPS-197 defines it, one element at a time.

``repro.crypto.sbox`` builds its tables from GF(2^8) exp/log tables and
a rotation form of the affine map; this is the construction it
replaced: the field inverse ``a^254`` of each byte, then the affine map
applied bit by bit.
"""

from __future__ import annotations

from typing import List

from repro.crypto.gf import gf_inv

#: Constant added by the affine transformation (FIPS-197 ``c``).
AFFINE_CONSTANT = 0x63


def affine_transform(byte: int) -> int:
    """Apply the AES affine transformation to one byte.

    Each output bit i is ``b[i] ^ b[(i+4)%8] ^ b[(i+5)%8] ^ b[(i+6)%8]
    ^ b[(i+7)%8] ^ c[i]`` where ``c = 0x63``.
    """
    result = 0
    for i in range(8):
        bit = (
            (byte >> i)
            ^ (byte >> ((i + 4) % 8))
            ^ (byte >> ((i + 5) % 8))
            ^ (byte >> ((i + 6) % 8))
            ^ (byte >> ((i + 7) % 8))
            ^ (AFFINE_CONSTANT >> i)
        ) & 1
        result |= bit << i
    return result


def reference_sbox() -> List[int]:
    """The forward S-box: ``affine_transform(gf_inv(x))`` per byte."""
    return [affine_transform(gf_inv(byte)) for byte in range(256)]


def reference_inv_sbox() -> List[int]:
    """The inverse S-box, inverted from :func:`reference_sbox`."""
    inverse = [0] * 256
    for byte, value in enumerate(reference_sbox()):
        inverse[value] = byte
    return inverse
