"""Hardware-trojan base classes.

A hardware trojan, as inserted by the paper's untrusted-foundry
adversary, is described by three aspects:

* **structure** — a small netlist of trigger and payload cells dropped
  into unused slices; its size (the paper expresses it as a percentage
  of the AES area) drives how detectable it is;
* **connectivity** — which nets of the host design it taps (the
  combinational trojans scan SubBytes input signals); tapping a net adds
  capacitive load and therefore delay to that net;
* **activity** — how much the trojan's own logic switches while the
  host runs, even though the payload is never triggered.  This dormant
  activity is what the EM measurement picks up, and its supply current
  is what couples into the host's delays through the power grid.

:class:`HardwareTrojan` bundles structure and connectivity and defines
the activity interface; concrete triggers live in
:mod:`repro.trojan.combinational` and :mod:`repro.trojan.sequential`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence

from ..netlist.netlist import Netlist


class TrojanKind(str, Enum):
    """Trigger style of a hardware trojan."""

    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class TrojanActivity:
    """Switching-activity counts of a trojan over one host clock cycle.

    Attributes
    ----------
    output_toggles:
        Number of trojan cell outputs that changed value.
    input_pin_toggles:
        Number of trojan cell input pins whose driving net changed value
        (dormant trigger logic mostly shows up through these).
    """

    output_toggles: int
    input_pin_toggles: int

    def weighted(self, pin_weight: float = 0.3) -> float:
        """Scalar activity: full weight for output toggles, ``pin_weight``
        for input-pin toggles (an input pin charging internal LUT
        capacitance draws a fraction of a full output transition)."""
        return self.output_toggles + pin_weight * self.input_pin_toggles

    def __add__(self, other: "TrojanActivity") -> "TrojanActivity":
        return TrojanActivity(
            output_toggles=self.output_toggles + other.output_toggles,
            input_pin_toggles=self.input_pin_toggles + other.input_pin_toggles,
        )


#: The zero activity constant.
NO_ACTIVITY = TrojanActivity(0, 0)


@dataclass
class HardwareTrojan:
    """A built (but not yet placed) hardware trojan.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"HT1"`` or ``"HT_seq"``.
    kind:
        Combinational or sequential trigger.
    netlist:
        Structural netlist of the trojan (trigger + payload).
    tapped_host_nets:
        Host-design net names the trojan observes, in the order of the
        trojan's ``tap{i}`` inputs.  Empty for autonomous (sequential)
        trojans.
    tap_input_nets:
        The trojan-side input net names corresponding to
        ``tapped_host_nets`` (same length and order).
    description:
        Free-text description of trigger condition and payload.
    """

    name: str
    kind: TrojanKind
    netlist: Netlist
    tapped_host_nets: List[str] = field(default_factory=list)
    tap_input_nets: List[str] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.tapped_host_nets) != len(self.tap_input_nets):
            raise ValueError(
                "tapped_host_nets and tap_input_nets must have the same length"
            )

    # -- size accounting -----------------------------------------------------

    def lut_count(self) -> float:
        """Logic size of the trojan in LUT equivalents."""
        return self.netlist.lut_equivalent_area()

    def cell_count(self) -> int:
        """Number of cell instances (LUTs, FFs, muxes...)."""
        return len(self.netlist.cells)

    def slice_count(self, luts_per_slice: int = 4) -> float:
        """Approximate slice footprint (LUT-bound packing)."""
        if luts_per_slice <= 0:
            raise ValueError("luts_per_slice must be positive")
        return self.lut_count() / luts_per_slice

    # -- activity ---------------------------------------------------------------

    def tap_values(self, host_state: Sequence[int]) -> Dict[str, int]:
        """Trojan input-net values derived from a host state block.

        The default implementation assumes tapped host nets are state
        register bits named by the last-round circuit convention; concrete
        trojans override :meth:`host_bit_for_tap` when needed.
        """
        raise NotImplementedError

    def round_activity(self, state_before: Sequence[int],
                       state_after: Sequence[int],
                       encryption_index: int = 0,
                       round_index: int = 0) -> TrojanActivity:
        """Dormant switching activity over one host clock cycle.

        Parameters
        ----------
        state_before, state_after:
            Host state register content before/after the clock edge.
        encryption_index:
            Index of the encryption in the acquisition campaign (used by
            sequential trojans whose counter advances per encryption).
        round_index:
            Round number within the encryption (1-based).
        """
        raise NotImplementedError

    def encryption_activity(self, round_states: Sequence[bytes],
                            encryption_index: int = 0) -> List[TrojanActivity]:
        """Activity for every clock cycle of one encryption.

        ``round_states`` is the sequence of state-register values over
        the encryption (initial state then one entry per round); the
        result has one entry per transition, equal to
        :meth:`round_activity` for that cycle.  Concrete trojans
        evaluate every cycle's netlist state in one compiled-kernel
        batch.
        """
        raise NotImplementedError

    def encryption_activity_counts(self, round_states: "object",
                                   encryption_indices: Optional[Sequence[int]]
                                   = None
                                   ) -> "tuple[object, object]":
        """Toggle counts of a whole *batch* of encryptions at once.

        ``round_states`` is the ``(num_encryptions, num_cycles + 1, 16)``
        uint8 register-state tensor of
        :func:`repro.crypto.batch.encrypt_round_states` (row 0 the
        register load); ``encryption_indices`` gives each row's position
        in the acquisition campaign (defaults to ``0..N-1``).  Returns
        ``(output_toggles, input_pin_toggles)`` int64 matrices of shape
        ``(num_encryptions, num_cycles)``, row ``i`` equal to
        :meth:`encryption_activity` of encryption ``i``.
        """
        raise NotImplementedError

    # -- helpers for subclasses ------------------------------------------------

    def _batched_toggle_counts(self, values: "object") -> List[TrojanActivity]:
        """Toggle counts between consecutive rows of a compiled evaluation.

        ``values`` is the ``(num_states, num_nets)`` matrix returned by
        the compiled netlist for successive cycle states; entry ``i`` of
        the result equals what :meth:`_netlist_toggle_counts` computes
        for rows ``i`` and ``i + 1``.
        """
        output_toggles, pin_toggles = self.netlist.compiled().toggle_counts(
            values
        )
        return [TrojanActivity(output_toggles=int(out), input_pin_toggles=int(pins))
                for out, pins in zip(output_toggles, pin_toggles)]

    def _netlist_toggle_counts(self, inputs_before: Mapping[str, int],
                               inputs_after: Mapping[str, int],
                               registers_before: Optional[Mapping[str, int]] = None,
                               registers_after: Optional[Mapping[str, int]] = None
                               ) -> TrojanActivity:
        """Count output and input-pin toggles between two evaluations."""
        values_before = self.netlist.evaluate(dict(inputs_before), registers_before)
        values_after = self.netlist.evaluate(dict(inputs_after), registers_after)
        output_toggles = 0
        pin_toggles = 0
        for cell in self.netlist.cells.values():
            if values_before.get(cell.output) != values_after.get(cell.output):
                output_toggles += 1
            for net in cell.inputs:
                if values_before.get(net) != values_after.get(net):
                    pin_toggles += 1
        return TrojanActivity(output_toggles=output_toggles,
                              input_pin_toggles=pin_toggles)
