"""The S-box as FIPS-197 defines it, one element at a time.

``repro.crypto.sbox`` builds its tables from GF(2^8) exp/log tables and
a rotation form of the affine map; this is the construction it
replaced: the field inverse ``a^254`` of each byte (by square-and-
multiply over the general field multiplication), then the affine map
applied bit by bit.  The stand-alone gate-level S-box is a fixture the
netlist-kernel tests exercise: the package builds its S-boxes only
inside the last-round circuit.
"""

from __future__ import annotations

from typing import List

from repro.crypto.gf import _check_byte, xtime
from repro.crypto.sbox import SBOX
from repro.netlist.netlist import Netlist
from repro.netlist.synth import synthesize_function


def gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) (carry-less, reduced mod 0x11B)."""
    _check_byte(a, "a")
    _check_byte(b, "b")
    result = 0
    x = a
    y = b
    while y:
        if y & 1:
            result ^= x
        x = xtime(x)
        y >>= 1
    return result


def gf_pow(a: int, exponent: int) -> int:
    """Raise ``a`` to ``exponent`` in GF(2^8) by square-and-multiply."""
    _check_byte(a, "a")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    result = 1
    base = a
    e = exponent
    while e:
        if e & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        e >>= 1
    return result


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(2^8); by convention ``gf_inv(0) == 0``.

    AES defines the S-box on the *extended* inverse where 0 maps to 0;
    for non-zero ``a`` the inverse is ``a^(2^8 - 2) = a^254``.
    """
    _check_byte(a, "a")
    if a == 0:
        return 0
    return gf_pow(a, 254)

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


def sbox_input_net(bit: int) -> str:
    """Name of S-box input net for bit ``bit`` (0 = LSB of the byte)."""
    if not 0 <= bit < 8:
        raise ValueError(f"bit must be in range(8), got {bit}")
    return f"in{bit}"


def sbox_output_net(bit: int) -> str:
    """Name of S-box output net for bit ``bit`` (0 = LSB of the byte)."""
    if not 0 <= bit < 8:
        raise ValueError(f"bit must be in range(8), got {bit}")
    return f"out{bit}"


def build_sbox_netlist(name: str = "aes_sbox") -> Netlist:
    """A stand-alone LUT-mapped forward S-box netlist (a test fixture).

    Inputs are ``in0..in7`` (LSB first), outputs ``out0..out7``; each
    output bit is an 8-input function mapped onto four 6-input LUTs and
    the F7/F8 multiplexers, as inside the last-round circuit.
    """
    netlist = Netlist(name=name)
    input_nets = [netlist.add_input(sbox_input_net(bit)) for bit in range(8)]
    for bit in range(8):
        netlist.add_output(sbox_output_net(bit))

    for bit in range(8):
        table = tuple((SBOX[value] >> bit) & 1 for value in range(256))
        synthesize_function(
            netlist,
            prefix=f"b{bit}_",
            input_nets=input_nets,
            output_net=sbox_output_net(bit),
            table=table,
        )
    netlist.validate()
    return netlist


def evaluate_sbox_netlist(netlist: Netlist, value: int) -> int:
    """Evaluate the S-box netlist for one input byte; returns the output byte."""
    if not 0 <= value < 256:
        raise ValueError(f"value must be in range(256), got {value}")
    values = netlist.evaluate(
        {sbox_input_net(bit): (value >> bit) & 1 for bit in range(8)})
    result = 0
    for bit in range(8):
        result |= values[sbox_output_net(bit)] << bit
    return result


def sbox_netlist_truth_table(netlist: Netlist) -> List[int]:
    """Exhaustive truth table of the S-box netlist (256 output bytes)."""
    return [evaluate_sbox_netlist(netlist, value) for value in range(256)]
