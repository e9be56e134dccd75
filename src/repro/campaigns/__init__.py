"""Batched scenario-sweep campaigns.

This package turns the paper's fixed 8-die study into a declarative,
batched sweep engine: describe a grid of (trojans x die populations x
acquisition variants x metrics) with :class:`CampaignSpec`, execute it
with :class:`CampaignEngine` (vectorised acquisition, shared design and
fingerprint caches, supervised worker processes with retries, timeouts
and poison-cell quarantine), persist and report the results.

Names resolve on first access.  The spec and the engine's record types
import nothing that computes, and the engine loads NumPy and the
simulation layers on the first cell the store does not hold, so a
fully resumed campaign runs without them.
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "AcquisitionVariant": ".spec",
    "KNOWN_METRICS": ".spec",
    "METRIC_ARTIFACTS": ".spec",
    "CampaignCellResult": ".engine",
    "CampaignEngine": ".engine",
    "CampaignResult": ".engine",
    "CampaignRow": ".engine",
    "CampaignSpec": ".spec",
    "CampaignSupervisor": ".supervisor",
    "GridCell": ".spec",
    "run_cells_serial": ".supervisor",
    "apply_em_overrides": ".spec",
    "build_metric": ".engine",
    "format_campaign_rows": ".engine",
    "merge_campaign_results": ".engine",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
