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
from typing import Dict, List, Optional, Sequence

from ..netlist.netlist import Netlist


class TrojanKind(str, Enum):
    """Trigger style of a hardware trojan."""

    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"


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
        ``(num_encryptions, num_cycles)``: entry ``[i, c]`` counts the
        trojan cell outputs and input pins that change value over clock
        cycle ``c + 1`` of encryption ``i``.  Concrete trojans evaluate
        the whole batch through the compiled netlist kernel.
        """
        raise NotImplementedError
