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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..crypto.aes import SHIFT_ROWS_PERM
from ..crypto.sbox import SBOX
from ..crypto.state import BLOCK_BITS, BLOCK_BYTES, validate_block
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


def byte_bit_to_paper_bit(byte: int, bit: int) -> int:
    """Inverse of :func:`paper_bit_to_byte_bit`."""
    if not 0 <= byte < BLOCK_BYTES:
        raise ValueError(f"byte must be in range(16), got {byte}")
    if not 0 <= bit < 8:
        raise ValueError(f"bit must be in range(8), got {bit}")
    return byte * 8 + (7 - bit)


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


def block_to_net_values(block: Sequence[int], net_namer) -> Dict[str, int]:
    """Expand a 16-byte block into per-bit net values using ``net_namer``."""
    data = validate_block(block)
    values: Dict[str, int] = {}
    for byte in range(BLOCK_BYTES):
        for bit in range(8):
            values[net_namer(byte, bit)] = (data[byte] >> bit) & 1
    return values


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
        subbytes_inputs: List[str] = []

        for byte in range(BLOCK_BYTES):
            for bit in range(8):
                net = netlist.add_input(state_input_net(byte, bit))
                subbytes_inputs.append(net)
        for byte in range(BLOCK_BYTES):
            for bit in range(8):
                netlist.add_input(key_input_net(byte, bit))

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

    def input_values(self, state_in: Sequence[int], round_key: Sequence[int]
                     ) -> Dict[str, int]:
        """Primary-input net values for a round input state and round key."""
        values = block_to_net_values(state_in, state_input_net)
        values.update(block_to_net_values(round_key, key_input_net))
        return values

    def evaluate(self, state_in: Sequence[int], round_key: Sequence[int]) -> bytes:
        """Compute the round output (ciphertext) for ``state_in`` and ``round_key``.

        Runs on the compiled kernel.
        """
        return self.evaluate_batch([state_in], [round_key])[0]

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
        # Primary-input order is st_b{byte}_{bit} then key_b{byte}_{bit}
        # with bit 0 = LSB, which is exactly little-endian unpacking.
        rows = np.concatenate(
            [np.unpackbits(state_bytes, axis=1, bitorder="little"),
             np.unpackbits(key_bytes, axis=1, bitorder="little")],
            axis=1,
        )
        compiled = self.netlist.compiled()
        values = compiled.evaluate_batch(rows)
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

    def output_q_net(self, paper_bit: int) -> str:
        """Q-output net of the ciphertext DFF for a paper-style bit index."""
        byte, bit = paper_bit_to_byte_bit(paper_bit)
        return ciphertext_q_net(byte, bit)

    def state_net(self, paper_bit: int) -> str:
        """State-register input net for a paper-style bit index."""
        byte, bit = paper_bit_to_byte_bit(paper_bit)
        return state_input_net(byte, bit)

    def key_net(self, paper_bit: int) -> str:
        """Round-key input net for a paper-style bit index."""
        byte, bit = paper_bit_to_byte_bit(paper_bit)
        return key_input_net(byte, bit)

    def output_d_nets(self) -> List[str]:
        """D-input nets of all 128 ciphertext DFFs, in paper-bit order."""
        return [self.output_d_net(i) for i in range(BLOCK_BITS)]

    def lut_equivalent_area(self) -> float:
        """Area of the last-round circuit in LUT equivalents."""
        return self.netlist.lut_equivalent_area()
