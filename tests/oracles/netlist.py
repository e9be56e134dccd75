"""Interpreted references of the compiled netlist kernel's callers.

Each function walks :meth:`repro.netlist.netlist.Netlist.evaluate` (the
cell-by-cell executable specification) where the shipped code runs one
compiled-kernel batch; the first argument is the instance whose method
the reference stands for.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.crypto.state import BLOCK_BYTES
from repro.netlist.aes_round_circuit import (
    AESLastRoundCircuit,
    ciphertext_d_net,
)
from repro.trojan.base import HardwareTrojan, TrojanActivity


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
    """One interpreted ``round_activity`` walk per cycle of one encryption."""
    activities: List[TrojanActivity] = []
    for cycle, (before, after) in enumerate(
            zip(round_states[:-1], round_states[1:]), start=1):
        activities.append(
            trojan.round_activity(before, after,
                                  encryption_index=encryption_index,
                                  round_index=cycle)
        )
    return activities


def encryption_activity_counts_loop(trojan: HardwareTrojan,
                                    round_states: "object",
                                    encryption_indices:
                                    Optional[Sequence[int]] = None
                                    ) -> "tuple[np.ndarray, np.ndarray]":
    """Per-encryption loop of ``trojan.encryption_activity``.

    The reference the vectorised ``encryption_activity_counts``
    overrides are tested against: one ``encryption_activity`` call per
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
        activities = trojan.encryption_activity(
            [bytes(state) for state in states[row]],
            encryption_index=indices[row],
        )
        output_toggles[row] = [a.output_toggles for a in activities]
        pin_toggles[row] = [a.input_pin_toggles for a in activities]
    return output_toggles, pin_toggles
