"""Combinational hardware trojans (SubBytes-input triggers).

The paper's combinational trojan family scans the signals at the input
of the SubBytes step and fires when all scanned bits are simultaneously
'1':

* ``HT comb`` / ``HT 1`` — 32 scanned bits (0.19 % of the FPGA slices,
  i.e. 0.5 % of the AES area),
* ``HT 2`` — 64 scanned bits (1.0 % of the AES area),
* ``HT 3`` — 128 scanned bits (1.7 % of the AES area).

The trigger is a wide AND implemented as a LUT reduction tree; the
payload is a dormant DoS chain (:mod:`repro.trojan.payload`).  The
scanned host nets are the state-register outputs of the last-round
circuit (the SubBytes inputs), which is also what makes the trojan
observable: it loads those nets and its trigger tree sees their
switching every round.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..crypto.state import BLOCK_BITS
from ..netlist.aes_round_circuit import paper_bit_to_byte_bit, state_input_net
from ..netlist.netlist import Netlist
from ..netlist.synth import synthesize_reduction_tree
from .base import HardwareTrojan, TrojanKind
from .payload import add_dos_payload

#: Net name carrying the trigger condition inside the trojan netlist.
TRIGGER_NET = "trigger"


def default_scanned_bits(width: int) -> List[int]:
    """Paper-style choice of scanned SubBytes input bits.

    The first ``width`` bits (paper numbering) of the state register are
    scanned; HT3 scans the full 128-bit state.
    """
    if not 1 <= width <= BLOCK_BITS:
        raise ValueError(f"width must be in 1..{BLOCK_BITS}, got {width}")
    return list(range(width))


class CombinationalTrojan(HardwareTrojan):
    """AND-of-N trigger over SubBytes input bits with a dormant DoS payload."""

    def __init__(self, name: str, scanned_bits: Sequence[int],
                 payload_luts: int = 0, description: str = ""):
        scanned_bits = list(scanned_bits)
        if not scanned_bits:
            raise ValueError("a combinational trojan must scan at least one bit")
        if len(set(scanned_bits)) != len(scanned_bits):
            raise ValueError("scanned_bits must be distinct")
        for bit in scanned_bits:
            if not 0 <= bit < BLOCK_BITS:
                raise ValueError(f"scanned bit {bit} out of range(128)")

        netlist = Netlist(name=f"{name}_netlist")
        tap_nets = []
        for index, _bit in enumerate(scanned_bits):
            tap_nets.append(netlist.add_input(f"tap{index}"))
        synthesize_reduction_tree(netlist, "trig_", tap_nets, TRIGGER_NET,
                                  operation="and")
        netlist.add_output(TRIGGER_NET)
        add_dos_payload(netlist, TRIGGER_NET, payload_luts)
        netlist.validate()

        host_nets = []
        for bit in scanned_bits:
            byte, lsb = paper_bit_to_byte_bit(bit)
            host_nets.append(state_input_net(byte, lsb))

        super().__init__(
            name=name,
            kind=TrojanKind.COMBINATIONAL,
            netlist=netlist,
            tapped_host_nets=host_nets,
            tap_input_nets=tap_nets,
            description=description or (
                f"fires when {len(scanned_bits)} SubBytes input bits are all 1; "
                "DoS payload"
            ),
        )
        self.scanned_bits = scanned_bits

    # -- activity ----------------------------------------------------------------

    def encryption_activity_counts(self, round_states, encryption_indices=None):
        """Whole stimulus batches in one compiled-kernel evaluation.

        Every register state of every encryption becomes one row of a
        single ``evaluate_batch`` call; toggle counts are taken between
        consecutive rows *within* each encryption (the trigger tree is
        purely combinational, so nothing depends on
        ``encryption_indices``).
        """
        states = np.ascontiguousarray(round_states, dtype=np.uint8)
        if states.ndim != 3 or states.shape[2] != BLOCK_BITS // 8:
            raise ValueError(
                f"round_states must be (N, cycles + 1, {BLOCK_BITS // 8}), "
                f"got {states.shape}"
            )
        num_encryptions, num_rows = states.shape[0], states.shape[1]
        if encryption_indices is not None:
            num_indices = len(list(encryption_indices))
            if num_indices != num_encryptions:
                raise ValueError(
                    f"got {num_indices} encryption indices for "
                    f"{num_encryptions} encryptions"
                )
        if num_encryptions == 0 or num_rows < 2:
            shape = (num_encryptions, max(0, num_rows - 1))
            return (np.zeros(shape, dtype=np.int64),
                    np.zeros(shape, dtype=np.int64))
        state_bits = np.unpackbits(
            states.reshape(num_encryptions * num_rows, -1), axis=1
        )
        compiled = self.netlist.compiled()
        values = compiled.evaluate_batch(
            state_bits[:, self.scanned_bits], input_nets=self.tap_input_nets
        )
        return compiled.toggle_counts(
            values.reshape(num_encryptions, num_rows, -1)
        )


def build_combinational_trojan(name: str, trigger_width: int,
                               payload_luts: int = 0,
                               scanned_bits: Optional[Sequence[int]] = None
                               ) -> CombinationalTrojan:
    """Convenience constructor used by the trojan library.

    Parameters
    ----------
    name:
        Trojan identifier.
    trigger_width:
        Number of SubBytes input bits scanned by the trigger.
    payload_luts:
        Dormant payload size (see :mod:`repro.trojan.payload`).
    scanned_bits:
        Explicit bit selection; defaults to the first ``trigger_width``
        paper bits.
    """
    bits = list(scanned_bits) if scanned_bits is not None else \
        default_scanned_bits(trigger_width)
    if len(bits) != trigger_width:
        raise ValueError(
            f"scanned_bits has {len(bits)} entries, expected {trigger_width}"
        )
    return CombinationalTrojan(name=name, scanned_bits=bits,
                               payload_luts=payload_luts)
