"""Interpreted references of the compiled netlist kernel's callers.

Each function walks :meth:`repro.netlist.netlist.Netlist.evaluate` (the
cell-by-cell executable specification) where the shipped code runs one
compiled-kernel batch; the first argument is the instance whose method
the reference stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.crypto.state import BLOCK_BYTES
from repro.netlist.aes_round_circuit import (
    AESLastRoundCircuit,
    ciphertext_d_net,
)
from repro.trojan.base import HardwareTrojan, TrojanKind


@dataclass(frozen=True)
class TrojanActivity:
    """Switching-activity counts of a trojan over one host clock cycle.

    ``output_toggles`` counts trojan cell outputs that changed value,
    ``input_pin_toggles`` trojan cell input pins whose driving net
    changed value (dormant trigger logic mostly shows up through these).
    """

    output_toggles: int
    input_pin_toggles: int

    def weighted(self, pin_weight: float = 0.3) -> float:
        """Scalar activity: full weight per output toggle, ``pin_weight``
        per input-pin toggle."""
        return self.output_toggles + pin_weight * self.input_pin_toggles


#: The zero activity constant.
NO_ACTIVITY = TrojanActivity(0, 0)


def netlist_toggle_counts(trojan: HardwareTrojan,
                          inputs_before: Mapping[str, int],
                          inputs_after: Mapping[str, int],
                          registers_before: Optional[Mapping[str, int]] = None,
                          registers_after: Optional[Mapping[str, int]] = None
                          ) -> TrojanActivity:
    """Count output and input-pin toggles between two interpreted walks."""
    netlist = trojan.netlist
    values_before = netlist.evaluate(dict(inputs_before), registers_before)
    values_after = netlist.evaluate(dict(inputs_after), registers_after)
    output_toggles = 0
    pin_toggles = 0
    for cell in netlist.cells.values():
        if values_before.get(cell.output) != values_after.get(cell.output):
            output_toggles += 1
        for net in cell.inputs:
            if values_before.get(net) != values_after.get(net):
                pin_toggles += 1
    return TrojanActivity(output_toggles=output_toggles,
                          input_pin_toggles=pin_toggles)


def round_activity(trojan: HardwareTrojan, state_before: Sequence[int],
                   state_after: Sequence[int], encryption_index: int = 0,
                   round_index: int = 0) -> TrojanActivity:
    """Dormant switching activity of ``trojan`` over one host clock cycle.

    A combinational trigger sees the tapped state bits before and after
    the edge.  A sequential trojan's counter only moves at its increment
    round, from ``encryption_index`` to ``encryption_index + 1``.
    """
    if trojan.kind is TrojanKind.COMBINATIONAL:
        return netlist_toggle_counts(trojan, trojan.tap_values(state_before),
                                     trojan.tap_values(state_after))
    if round_index != trojan.increment_round:
        return NO_ACTIVITY
    return netlist_toggle_counts(
        trojan, {"inc": 0}, {"inc": 0},
        registers_before=trojan.counter_register_values(encryption_index),
        registers_after=trojan.counter_register_values(encryption_index + 1),
    )


def net_values_to_block(values: Mapping[str, int], net_namer) -> bytes:
    """Collapse per-bit net values back into a 16-byte block."""
    out = bytearray(BLOCK_BYTES)
    for byte in range(BLOCK_BYTES):
        acc = 0
        for bit in range(8):
            acc |= (int(values[net_namer(byte, bit)]) & 1) << bit
        out[byte] = acc
    return bytes(out)


def evaluate_interpreted(circuit: AESLastRoundCircuit,
                         state_in: Sequence[int],
                         round_key: Sequence[int]) -> bytes:
    """Round output of ``circuit`` through the interpreted netlist walk."""
    values = circuit.netlist.evaluate(circuit.input_values(state_in,
                                                           round_key))
    return net_values_to_block(values, ciphertext_d_net)


def encryption_activity_interpreted(trojan: HardwareTrojan,
                                    round_states: Sequence[bytes],
                                    encryption_index: int = 0
                                    ) -> List[TrojanActivity]:
    """One interpreted :func:`round_activity` walk per cycle of one encryption."""
    activities: List[TrojanActivity] = []
    for cycle, (before, after) in enumerate(
            zip(round_states[:-1], round_states[1:]), start=1):
        activities.append(
            round_activity(trojan, before, after,
                           encryption_index=encryption_index,
                           round_index=cycle)
        )
    return activities


def encryption_activity_counts_loop(trojan: HardwareTrojan,
                                    round_states: "object",
                                    encryption_indices:
                                    Optional[Sequence[int]] = None
                                    ) -> "tuple[np.ndarray, np.ndarray]":
    """Per-encryption loop of :func:`encryption_activity_interpreted`.

    The reference the vectorised ``encryption_activity_counts``
    overrides are tested against: one interpreted encryption walk per
    row of the ``(num_encryptions, num_cycles + 1, 16)`` state tensor.
    """
    states = np.ascontiguousarray(round_states, dtype=np.uint8)
    if states.ndim != 3 or states.shape[2] != BLOCK_BYTES:
        raise ValueError(
            f"round_states must be (N, cycles + 1, {BLOCK_BYTES}), got "
            f"{states.shape}"
        )
    num_encryptions = states.shape[0]
    num_cycles = max(0, states.shape[1] - 1)
    if encryption_indices is None:
        encryption_indices = range(num_encryptions)
    indices = list(encryption_indices)
    if len(indices) != num_encryptions:
        raise ValueError(
            f"got {len(indices)} encryption indices for "
            f"{num_encryptions} encryptions"
        )
    output_toggles = np.zeros((num_encryptions, num_cycles), dtype=np.int64)
    pin_toggles = np.zeros((num_encryptions, num_cycles), dtype=np.int64)
    for row in range(num_encryptions):
        activities = encryption_activity_interpreted(
            trojan, [bytes(state) for state in states[row]],
            encryption_index=indices[row],
        )
        output_toggles[row] = [a.output_toggles for a in activities]
        pin_toggles[row] = [a.input_pin_toggles for a in activities]
    return output_toggles, pin_toggles
