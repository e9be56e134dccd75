"""FPGA fabric substrate: devices, floorplan, placement, routing, PDN."""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "build_delay_annotation": ".annotation",
    "GoldenDesign": ".design",
    "AES_SLICE_UTILISATION": ".device",
    "FPGADevice": ".device",
    "aes_slice_budget": ".device",
    "virtex5_lx30": ".device",
    "Floorplan": ".floorplan",
    "Region": ".floorplan",
    "default_floorplan": ".floorplan",
    "Placement": ".placement",
    "Placer": ".placement",
    "net_endpoints": ".placement",
    "PowerGrid": ".power_grid",
    "Router": ".routing",
    "RoutedNet": ".routing",
    "added_tap_delay_ps": ".routing",
    "PlacementError": ".slices",
    "SliceCoord": ".slices",
    "SliceMap": ".slices",
    "manhattan_distance": ".slices",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
