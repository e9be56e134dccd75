"""Structural netlist of the final AES round (the attacked round).

The paper's clock-glitch platform shortens the 10th round of an
iterative AES-128 implementation until ciphertext bits are faulted.  The
timing behaviour that matters is therefore the combinational path from
the state register (holding the round-10 input) through SubBytes,
ShiftRows and AddRoundKey into the ciphertext register.

:class:`AESLastRoundCircuit` builds that path as a flat LUT-mapped
netlist:

* 128 primary inputs ``st_b{byte}_{bit}`` — the Q outputs of the state
  register entering the final round,
* 128 primary inputs ``key_b{byte}_{bit}`` — the round-10 key (kept as
  inputs so the same netlist serves any key),
* 16 S-box instances (4 LUT6 + 3 MUX per output bit),
* ShiftRows as pure renaming (routing only, as on the FPGA),
* 128 XOR LUTs for AddRoundKey,
* 128 DFFs latching the ciphertext bits ``ct_b{byte}_{bit}``.

Bit indexing convention: ``(byte, bit)`` with ``bit`` 0 = LSB of the
byte; the "paper bit number" used on Fig. 3's X-axis is mapped through
:func:`paper_bit_to_byte_bit` (bit 0 = MSB of byte 0, matching
:func:`repro.crypto.state.differing_bits`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..crypto.sbox import SBOX
from ..crypto.state import (
    BLOCK_BITS,
    BLOCK_BYTES,
    SHIFT_ROWS_PERM,
    validate_block,
)
from .cells import make_dff, make_lut
from .netlist import Netlist
from .synth import synthesize_function

#: XOR2 truth table for LUT realisation (input0 is address bit 0).
_XOR2_TABLE = (0, 1, 1, 0)


def paper_bit_to_byte_bit(bit_index: int) -> Tuple[int, int]:
    """Map a paper-style bit index (0..127, MSB-first) to ``(byte, lsb_bit)``."""
    if not 0 <= bit_index < BLOCK_BITS:
        raise ValueError(f"bit_index must be in range(128), got {bit_index}")
    return bit_index // 8, 7 - (bit_index % 8)


def state_input_net(byte: int, bit: int) -> str:
    """State-register input net name for ``(byte, bit)``."""
    return f"st_b{byte}_{bit}"


def key_input_net(byte: int, bit: int) -> str:
    """Round-key input net name for ``(byte, bit)``."""
    return f"key_b{byte}_{bit}"


def sbox_output_net_name(byte: int, bit: int) -> str:
    """Net carrying SubBytes output bit ``bit`` of state byte ``byte``."""
    return f"sb_b{byte}_{bit}"


def ciphertext_d_net(byte: int, bit: int) -> str:
    """Net feeding the D input of the ciphertext DFF for ``(byte, bit)``."""
    return f"ct_d_b{byte}_{bit}"


def ciphertext_q_net(byte: int, bit: int) -> str:
    """Q output net of the ciphertext DFF for ``(byte, bit)``."""
    return f"ct_b{byte}_{bit}"


#: The circuit's primary inputs in declaration (``netlist.inputs``)
#: order: the state bits, then the round-key bits, each ``(byte, bit)``
#: with bit 0 = LSB, which is exactly little-endian unpacking of the
#: two blocks (:meth:`AESLastRoundCircuit.input_rows`).
INPUT_NETS: Tuple[str, ...] = tuple(
    [state_input_net(byte, bit)
     for byte in range(BLOCK_BYTES) for bit in range(8)]
    + [key_input_net(byte, bit)
       for byte in range(BLOCK_BYTES) for bit in range(8)])


@dataclass
class AESLastRoundCircuit:
    """LUT-mapped netlist of the final AES round with helper accessors."""

    netlist: Netlist
    #: Net names tapped by SubBytes-input trojan triggers: the state
    #: register outputs, grouped per byte then per bit (LSB first).
    subbytes_input_nets: List[str] = field(default_factory=list)

    @classmethod
    def build(cls, name: str = "aes_last_round") -> "AESLastRoundCircuit":
        """Construct the last-round netlist."""
        netlist = Netlist(name=name)
        for net in INPUT_NETS:
            netlist.add_input(net)
        subbytes_inputs = list(INPUT_NETS[:BLOCK_BITS])

        # SubBytes: one LUT/MUX tree per output bit per byte.
        for byte in range(BLOCK_BYTES):
            input_nets = [state_input_net(byte, bit) for bit in range(8)]
            for bit in range(8):
                table = tuple((SBOX[value] >> bit) & 1 for value in range(256))
                synthesize_function(
                    netlist,
                    prefix=f"sbox{byte}_b{bit}_",
                    input_nets=input_nets,
                    output_net=sbox_output_net_name(byte, bit),
                    table=table,
                )

        # ShiftRows is a byte permutation: output byte i comes from input
        # byte SHIFT_ROWS_PERM[i].  AddRoundKey XORs the permuted SubBytes
        # output with the round key.
        for byte in range(BLOCK_BYTES):
            source_byte = SHIFT_ROWS_PERM[byte]
            for bit in range(8):
                xor_cell = make_lut(
                    f"ark_b{byte}_{bit}",
                    [sbox_output_net_name(source_byte, bit), key_input_net(byte, bit)],
                    ciphertext_d_net(byte, bit),
                    _XOR2_TABLE,
                )
                netlist.add_cell(xor_cell)
                dff = make_dff(
                    f"ctreg_b{byte}_{bit}",
                    ciphertext_d_net(byte, bit),
                    ciphertext_q_net(byte, bit),
                )
                netlist.add_cell(dff)
                netlist.add_output(ciphertext_q_net(byte, bit))

        netlist.validate()
        return cls(netlist=netlist, subbytes_input_nets=subbytes_inputs)

    # -- evaluation helpers ------------------------------------------------

    def input_rows(self, states_in: np.ndarray, round_keys: np.ndarray
                   ) -> np.ndarray:
        """Primary-input rows of many (state, key) stimuli.

        ``states_in`` and ``round_keys`` are ``(N, 16)`` uint8 byte
        matrices; the result is the ``(N, 256)`` uint8 0/1 matrix in
        ``netlist.inputs`` order (:data:`INPUT_NETS`).
        """
        assert tuple(self.netlist.inputs) == INPUT_NETS, \
            "primary inputs are not in the state-then-key bit layout"
        return np.concatenate(
            [np.unpackbits(states_in, axis=1, bitorder="little"),
             np.unpackbits(round_keys, axis=1, bitorder="little")],
            axis=1,
        )

    def evaluate_batch(self, states_in: Sequence[Sequence[int]],
                       round_keys: Sequence[Sequence[int]]) -> List[bytes]:
        """Round outputs for many (state, key) stimuli in one array pass.

        Conformance checks (and any caller sweeping stimuli) get the
        whole batch from a single levelised sweep of the compiled
        netlist; each result is bit-identical to the cell-by-cell
        interpreted walk of :meth:`Netlist.evaluate`.
        """
        if len(states_in) != len(round_keys):
            raise ValueError(
                f"got {len(states_in)} states for {len(round_keys)} round keys"
            )
        state_bytes = np.array([list(validate_block(s)) for s in states_in],
                               dtype=np.uint8)
        key_bytes = np.array([list(validate_block(k)) for k in round_keys],
                             dtype=np.uint8)
        compiled = self.netlist.compiled()
        values = compiled.evaluate_batch(self.input_rows(state_bytes,
                                                         key_bytes))
        d_columns = compiled.columns_for(
            [ciphertext_d_net(byte, bit)
             for byte in range(BLOCK_BYTES) for bit in range(8)]
        )
        packed = np.packbits(values[:, d_columns], axis=1, bitorder="little")
        return [bytes(row) for row in packed]

    # -- structural accessors ------------------------------------------------

    def output_d_net(self, paper_bit: int) -> str:
        """D-input net of the ciphertext DFF for a paper-style bit index."""
        byte, bit = paper_bit_to_byte_bit(paper_bit)
        return ciphertext_d_net(byte, bit)

    def output_d_nets(self) -> List[str]:
        """D-input nets of all 128 ciphertext DFFs, in paper-bit order."""
        return [self.output_d_net(i) for i in range(BLOCK_BITS)]
