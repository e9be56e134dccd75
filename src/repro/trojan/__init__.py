"""Hardware trojan models, catalog and layout-preserving insertion."""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "HardwareTrojan": ".base",
    "TrojanKind": ".base",
    "CombinationalTrojan": ".combinational",
    "build_combinational_trojan": ".combinational",
    "default_scanned_bits": ".combinational",
    "InfectedDesign": ".insertion",
    "InsertionError": ".insertion",
    "insert_trojan": ".insertion",
    "TROJAN_SPECS": ".library",
    "TrojanSpec": ".library",
    "build_trojan": ".library",
    "add_dos_payload": ".payload",
    "payload_luts_for_target_area": ".payload",
    "SequentialTrojan": ".sequential",
    "build_sequential_trojan": ".sequential",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
