"""Sequential hardware trojan (encryption counter + comparator).

The paper's sequential trojan contains a 32-bit counter incremented for
each AES encryption and a comparator; when the counter reaches a
predefined value the DoS payload fires.  It occupies 0.36 % of the FPGA
slices (about 0.94 % of the AES area).

Unlike the combinational trojans it does not tap the datapath: its only
observable effects while dormant are

* the slices it occupies (static current, power-grid coupling into the
  host's delays), and
* the small switching activity of the counter and comparator — on
  average two counter bits toggle per encryption — which adds a faint
  EM contribution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..netlist.cells import make_dff, make_lut
from ..netlist.netlist import Netlist
from ..netlist.synth import synthesize_reduction_tree
from .base import HardwareTrojan, TrojanKind
from .payload import add_dos_payload

#: Net name carrying the trigger condition inside the trojan netlist.
TRIGGER_NET = "trigger"

_XOR2_TABLE = (0, 1, 1, 0)
_AND2_TABLE = (0, 0, 0, 1)
_INV_TABLE = (1, 0)


class SequentialTrojan(HardwareTrojan):
    """32-bit (configurable) encryption counter with comparator and DoS payload.

    Parameters
    ----------
    name:
        Trojan identifier.
    counter_width:
        Number of counter bits (the paper uses 32).
    compare_value:
        Counter value that fires the trigger.  The default is the
        all-ones value, unreachable during any realistic campaign, which
        reproduces the paper's "never activated" condition.
    payload_luts:
        Dormant payload size.
    increment_round:
        Host round index at which the counter increments (the paper's
        trojan counts encryptions; the increment is modelled at the last
        round of each encryption).
    """

    def __init__(self, name: str, counter_width: int = 32,
                 compare_value: Optional[int] = None,
                 payload_luts: int = 0,
                 increment_round: int = 10,
                 description: str = ""):
        if counter_width < 2:
            raise ValueError("counter_width must be at least 2")
        if increment_round < 1:
            raise ValueError("increment_round must be >= 1")
        if compare_value is None:
            compare_value = (1 << counter_width) - 1
        if not 0 <= compare_value < (1 << counter_width):
            raise ValueError("compare_value out of range for counter width")

        netlist = Netlist(name=f"{name}_netlist")
        inc = netlist.add_input("inc")

        # Ripple-carry increment: carry[0] = inc; sum_i = q_i ^ carry_i;
        # carry_{i+1} = q_i & carry_i.  One XOR LUT and one AND LUT per bit.
        carry = inc
        match_nets: List[str] = []
        for bit in range(counter_width):
            q_net = f"cnt_q{bit}"
            d_net = f"cnt_d{bit}"
            netlist.add_cell(make_lut(f"cnt_sum{bit}", [q_net, carry],
                                      d_net, _XOR2_TABLE))
            if bit < counter_width - 1:
                carry_net = f"cnt_c{bit + 1}"
                netlist.add_cell(make_lut(f"cnt_carry{bit}", [q_net, carry],
                                          carry_net, _AND2_TABLE))
                carry = carry_net
            netlist.add_cell(make_dff(f"cnt_reg{bit}", d_net, q_net))

            # Comparator term: q_i when the target bit is 1, not(q_i) otherwise.
            if (compare_value >> bit) & 1:
                match_nets.append(q_net)
            else:
                inv_net = f"cmp_inv{bit}"
                netlist.add_cell(make_lut(f"cmp_invlut{bit}", [q_net],
                                          inv_net, _INV_TABLE))
                match_nets.append(inv_net)

        synthesize_reduction_tree(netlist, "cmp_", match_nets, TRIGGER_NET,
                                  operation="and")
        netlist.add_output(TRIGGER_NET)
        add_dos_payload(netlist, TRIGGER_NET, payload_luts)
        netlist.validate()

        super().__init__(
            name=name,
            kind=TrojanKind.SEQUENTIAL,
            netlist=netlist,
            tapped_host_nets=[],
            tap_input_nets=[],
            description=description or (
                f"{counter_width}-bit encryption counter, fires at "
                f"{compare_value:#x}; DoS payload"
            ),
        )
        self.counter_width = counter_width
        self.compare_value = compare_value
        self.increment_round = increment_round

    # -- counter state helpers ---------------------------------------------

    def counter_register_values(self, value: int) -> Dict[str, int]:
        """Register (Q net) values for a given counter value."""
        mask = (1 << self.counter_width) - 1
        value &= mask
        return {f"cnt_q{bit}": (value >> bit) & 1
                for bit in range(self.counter_width)}

    def is_triggered_at(self, counter_value: int) -> bool:
        """Whether the comparator fires for ``counter_value``."""
        values = self.netlist.evaluate(
            {"inc": 0}, self.counter_register_values(counter_value)
        )
        return bool(values[TRIGGER_NET])

    # -- HardwareTrojan interface ---------------------------------------------

    def tap_values(self, host_state: Sequence[int]) -> Dict[str, int]:
        """The sequential trojan does not observe the host datapath."""
        return {}

    def encryption_activity_counts(self, round_states, encryption_indices=None):
        """Counter toggles for a whole batch of encryptions at once.

        Only the increment cycle of each encryption toggles anything and
        the toggle pattern depends solely on the encryption index, so
        every *distinct* counter value appearing in the batch is
        evaluated once through the compiled kernel and the per-
        encryption counts are gathered from that table.
        """
        states = np.ascontiguousarray(round_states, dtype=np.uint8)
        if states.ndim != 3:
            raise ValueError(
                f"round_states must be a (N, cycles + 1, 16) tensor, got "
                f"{states.shape}"
            )
        num_encryptions = states.shape[0]
        num_cycles = max(0, states.shape[1] - 1)
        output_toggles = np.zeros((num_encryptions, num_cycles),
                                  dtype=np.int64)
        pin_toggles = np.zeros((num_encryptions, num_cycles), dtype=np.int64)
        if (num_encryptions == 0
                or not 1 <= self.increment_round <= num_cycles):
            return output_toggles, pin_toggles
        if encryption_indices is None:
            indices = np.arange(num_encryptions, dtype=np.int64)
        else:
            indices = np.asarray(list(encryption_indices), dtype=np.int64)
            if indices.size != num_encryptions:
                raise ValueError(
                    f"got {indices.size} encryption indices for "
                    f"{num_encryptions} encryptions"
                )
        counter_values = np.unique(np.concatenate([indices, indices + 1]))
        mask = (1 << self.counter_width) - 1
        register_nets = [f"cnt_q{bit}" for bit in range(self.counter_width)]
        register_rows = (
            ((counter_values[:, None] & mask)
             >> np.arange(self.counter_width)[None, :]) & 1
        ).astype(np.uint8)
        compiled = self.netlist.compiled()
        values = compiled.evaluate_batch(
            np.zeros((counter_values.size, 1), dtype=np.uint8),
            input_nets=["inc"],
            register_rows=register_rows, register_nets=register_nets,
        )
        before = np.searchsorted(counter_values, indices)
        after = np.searchsorted(counter_values, indices + 1)
        toggles = values[after] != values[before]
        output_toggles[:, self.increment_round - 1] = (
            toggles[:, compiled.all_output_columns].sum(axis=1)
        )
        pin_toggles[:, self.increment_round - 1] = (
            toggles[:, compiled.all_pin_columns].sum(axis=1)
        )
        return output_toggles, pin_toggles


def build_sequential_trojan(name: str = "HT_seq", counter_width: int = 32,
                            payload_luts: int = 0) -> SequentialTrojan:
    """Convenience constructor used by the trojan library."""
    return SequentialTrojan(name=name, counter_width=counter_width,
                            payload_luts=payload_luts)
