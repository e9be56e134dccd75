"""Arithmetic in GF(2^8) as used by the AES block cipher.

AES works in the finite field GF(2^8) with the reduction polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B).  The cipher needs only the
``xtime`` doubling primitive and the MixColumns multiplications by 0x02
and 0x03 built on it: the key schedule's round constants, the S-box's
walk of the powers of 0x03 and the batched MixColumns tables all come
from these.  The general multiplication, power and inverse the
element-wise S-box construction used are test references
(``tests/oracles/sbox.py``).
"""

from __future__ import annotations

#: The AES reduction polynomial x^8 + x^4 + x^3 + x + 1.
AES_POLY = 0x11B

#: Field size.
FIELD_SIZE = 256


def _check_byte(value: int, name: str = "value") -> int:
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not 0 <= value < FIELD_SIZE:
        raise ValueError(f"{name} must be in range(256), got {value}")
    return value


def xtime(value: int) -> int:
    """Multiply ``value`` by ``x`` (i.e. 0x02) in GF(2^8).

    This is the primitive operation from which MixColumns multiplication
    is usually built in hardware (a shift and a conditional XOR with the
    reduction polynomial).
    """
    _check_byte(value)
    value <<= 1
    if value & 0x100:
        value ^= AES_POLY
    return value & 0xFF


def gf_mul_02(a: int) -> int:
    """Multiplication by 0x02 (alias of :func:`xtime`), used by MixColumns."""
    return xtime(a)


def gf_mul_03(a: int) -> int:
    """Multiplication by 0x03 = 0x02 + 0x01, used by MixColumns."""
    return xtime(a) ^ a
