"""Hardware trojan models, catalog and layout-preserving insertion."""

from .base import HardwareTrojan, TrojanKind
from .combinational import (
    CombinationalTrojan,
    build_combinational_trojan,
    default_scanned_bits,
)
from .insertion import InfectedDesign, InsertionError, insert_trojan
from .library import (
    TROJAN_SPECS,
    TrojanSpec,
    available_trojans,
    build_size_sweep,
    build_trojan,
)
from .payload import add_dos_payload, payload_luts_for_target_area
from .sequential import SequentialTrojan, build_sequential_trojan

__all__ = [
    "HardwareTrojan",
    "TrojanKind",
    "CombinationalTrojan",
    "build_combinational_trojan",
    "default_scanned_bits",
    "InfectedDesign",
    "InsertionError",
    "insert_trojan",
    "TROJAN_SPECS",
    "TrojanSpec",
    "available_trojans",
    "build_size_sweep",
    "build_trojan",
    "add_dos_payload",
    "payload_luts_for_target_area",
    "SequentialTrojan",
    "build_sequential_trojan",
]
