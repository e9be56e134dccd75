"""The AES S-box and its inverse, generated from first principles.

The forward S-box is the composition of the multiplicative inverse in
GF(2^8) (with 0 mapped to 0) and the fixed affine transformation over
GF(2).  Generating the table rather than hard-coding it lets the
test-suite cross-check it, and the gate-level S-boxes of the last-round
circuit built from it, against an independent construction.  The
inverse comes from exp/log tables (one walk of the powers of 0x03),
which keeps the build well under a millisecond; the element-wise
``gf_inv`` plus bit-serial affine map it replaced is the reference both
tables are pinned against (``tests/oracles/sbox.py``).

Known-answer values (``SBOX[0x00] == 0x63``, ``SBOX[0x53] == 0xED`` ...)
are asserted in the tests against the FIPS-197 specification.
"""

from __future__ import annotations

from typing import List, Sequence

from .gf import gf_mul_03

#: Constant added by the affine transformation.
AFFINE_CONSTANT = 0x63


def _rotl8(byte: int, shift: int) -> int:
    return ((byte << shift) | (byte >> (8 - shift))) & 0xFF


def _build_sbox() -> List[int]:
    """SubBytes from GF(2^8) exp/log tables over the generator 0x03.

    ``exp[i] = 3^i`` walks every non-zero element once, so the inverse
    of ``exp[i]`` is ``exp[255 - i]`` (and 0 maps to 0).  The affine map
    ``b[i] ^ b[i+4] ^ b[i+5] ^ b[i+6] ^ b[i+7] ^ c[i]`` (indices mod 8)
    is ``b`` XOR its left rotations by 1 to 4, XOR ``0x63``.
    """
    exp = [0] * 256
    log = [0] * 256
    value = 1
    for power in range(256):
        exp[power] = value
        log[value] = power % 255  # 3^255 == 3^0 == 1
        value = gf_mul_03(value)
    table = []
    for byte in range(256):
        inverse = exp[255 - log[byte]] if byte else 0
        table.append(inverse ^ _rotl8(inverse, 1) ^ _rotl8(inverse, 2)
                     ^ _rotl8(inverse, 3) ^ _rotl8(inverse, 4)
                     ^ AFFINE_CONSTANT)
    return table


def _invert_table(table: Sequence[int]) -> List[int]:
    inverse = [0] * 256
    for index, value in enumerate(table):
        inverse[value] = index
    return inverse


#: Forward S-box (SubBytes), as a 256-entry list.
SBOX: List[int] = _build_sbox()

#: Inverse S-box (InvSubBytes).
INV_SBOX: List[int] = _invert_table(SBOX)
