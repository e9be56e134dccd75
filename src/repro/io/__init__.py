"""Persistence helpers for traces and experiment results."""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "load_result": ".results",
    "save_result": ".results",
    "to_jsonable": ".results",
    "load_traces": ".tracefile",
    "save_traces": ".tracefile",
    "traces_from_arrays": ".tracefile",
    "traces_to_arrays": ".tracefile",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
