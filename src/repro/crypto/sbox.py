"""The AES S-box and its inverse, generated from first principles.

The forward S-box is the composition of the multiplicative inverse in
GF(2^8) (with 0 mapped to 0) and the fixed affine transformation over
GF(2).  Generating the table rather than hard-coding it lets the
test-suite cross-check both this module and the gate-level S-box
netlists in :mod:`repro.netlist.sbox_circuit` against an independent
construction.

Known-answer values (``SBOX[0x00] == 0x63``, ``SBOX[0x53] == 0xED`` ...)
are asserted in the tests against the FIPS-197 specification.
"""

from __future__ import annotations

from typing import List, Sequence

from .gf import gf_inv

#: Constant added by the affine transformation.
AFFINE_CONSTANT = 0x63


def _affine_transform(byte: int) -> int:
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


def _build_sbox() -> List[int]:
    return [_affine_transform(gf_inv(x)) for x in range(256)]


def _invert_table(table: Sequence[int]) -> List[int]:
    inverse = [0] * 256
    for index, value in enumerate(table):
        inverse[value] = index
    return inverse


#: Forward S-box (SubBytes), as a 256-entry list.
SBOX: List[int] = _build_sbox()

#: Inverse S-box (InvSubBytes).
INV_SBOX: List[int] = _invert_table(SBOX)


def sub_byte(byte: int) -> int:
    """Forward S-box lookup for a single byte."""
    if not 0 <= byte < 256:
        raise ValueError(f"byte must be in range(256), got {byte}")
    return SBOX[byte]


def inv_sub_byte(byte: int) -> int:
    """Inverse S-box lookup for a single byte."""
    if not 0 <= byte < 256:
        raise ValueError(f"byte must be in range(256), got {byte}")
    return INV_SBOX[byte]


def sub_bytes(data: Sequence[int]) -> List[int]:
    """Apply the forward S-box to every byte of ``data``."""
    return [sub_byte(b) for b in data]


def sbox_output_bit(input_byte: int, bit: int) -> int:
    """Return output bit ``bit`` (0 = LSB) of ``SBOX[input_byte]``.

    Used by the truth-table driven LUT synthesis of the S-box circuit.
    """
    if not 0 <= bit < 8:
        raise ValueError(f"bit index must be in range(8), got {bit}")
    return (sub_byte(input_byte) >> bit) & 1
