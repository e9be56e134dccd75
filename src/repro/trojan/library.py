"""Catalog of the paper's hardware trojans.

Five named trojans are used across the paper:

===========  ============  =======================  ====================
Name         Trigger       Size (fraction of AES)   Paper section
===========  ============  =======================  ====================
``HT_comb``  32-bit AND    0.5 %  (0.19 % of FPGA)  II-B, III, IV
``HT_seq``   32-bit ctr    0.94 % (0.36 % of FPGA)  II-B, III
``HT1``      32-bit AND    0.5 %                    V
``HT2``      64-bit AND    1.0 %                    V
``HT3``      128-bit AND   1.7 %                    V
===========  ============  =======================  ====================

The trigger width fixes the trigger-tree size; the dormant DoS payload
absorbs the rest of the reported area so the modelled trojan occupies
the same fraction of the AES as in the paper (the quantity the
false-negative-rate headline is parameterised by).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..fpga.device import FPGADevice, aes_slice_budget, virtex5_lx30

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import HardwareTrojan


@dataclass(frozen=True)
class TrojanSpec:
    """Declarative entry of the trojan catalog."""

    name: str
    kind: str
    trigger_width: int
    target_aes_fraction: float
    paper_reference: str

    def target_lut_count(self, device: FPGADevice) -> float:
        """Total LUT budget implied by the target AES-area fraction."""
        aes_slices = aes_slice_budget(device)
        return self.target_aes_fraction * aes_slices * device.luts_per_slice


#: The paper's trojan catalog, keyed by name.
TROJAN_SPECS: Dict[str, TrojanSpec] = {
    "HT_comb": TrojanSpec("HT_comb", "combinational", 32, 0.005, "Sec. II-B"),
    "HT_seq": TrojanSpec("HT_seq", "sequential", 32, 0.0094, "Sec. II-B"),
    "HT1": TrojanSpec("HT1", "combinational", 32, 0.005, "Sec. V-A"),
    "HT2": TrojanSpec("HT2", "combinational", 64, 0.010, "Sec. V-A"),
    "HT3": TrojanSpec("HT3", "combinational", 128, 0.017, "Sec. V-A"),
}


def build_trojan(name: str, device: Optional[FPGADevice] = None) -> HardwareTrojan:
    """Build a catalog trojan sized for ``device``.

    The trojan's payload is padded so its total LUT count matches the
    area fraction the paper reports for it.
    """
    from .combinational import build_combinational_trojan
    from .payload import payload_luts_for_target_area
    from .sequential import build_sequential_trojan

    device = device or virtex5_lx30()
    try:
        spec = TROJAN_SPECS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown trojan {name!r}; available: {', '.join(TROJAN_SPECS)}"
        ) from exc

    target_luts = spec.target_lut_count(device)
    if spec.kind == "combinational":
        bare = build_combinational_trojan(spec.name, spec.trigger_width,
                                          payload_luts=0)
        padding = payload_luts_for_target_area(target_luts, bare.lut_count())
        return build_combinational_trojan(spec.name, spec.trigger_width,
                                          payload_luts=padding)
    if spec.kind == "sequential":
        bare = build_sequential_trojan(spec.name, counter_width=spec.trigger_width,
                                       payload_luts=0)
        padding = payload_luts_for_target_area(target_luts, bare.lut_count())
        return build_sequential_trojan(spec.name, counter_width=spec.trigger_width,
                                       payload_luts=padding)
    raise ValueError(f"unsupported trojan kind {spec.kind!r}")  # pragma: no cover
