"""Batched scenario-sweep campaigns.

This package turns the paper's fixed 8-die study into a declarative,
batched sweep engine: describe a grid of (trojans x die populations x
acquisition variants x metrics) with :class:`CampaignSpec`, execute it
with :class:`CampaignEngine` (vectorised acquisition, shared design and
fingerprint caches, supervised worker processes with retries, timeouts
and poison-cell quarantine), persist and report the results.
"""

from .engine import (
    CampaignCellResult,
    CampaignEngine,
    CampaignResult,
    CampaignRow,
    build_metric,
    format_campaign_rows,
    merge_campaign_results,
    run_campaign,
)
from .supervisor import (
    CampaignSupervisor,
    SupervisorPolicy,
    run_cells_serial,
)
from .spec import (
    AcquisitionVariant,
    CampaignSpec,
    GridCell,
    KNOWN_DELAY_METRICS,
    KNOWN_EM_METRICS,
    KNOWN_FAULT_METRICS,
    KNOWN_METRICS,
    apply_em_overrides,
)

__all__ = [
    "AcquisitionVariant",
    "KNOWN_DELAY_METRICS",
    "KNOWN_EM_METRICS",
    "KNOWN_FAULT_METRICS",
    "KNOWN_METRICS",
    "CampaignCellResult",
    "CampaignEngine",
    "CampaignResult",
    "CampaignRow",
    "CampaignSpec",
    "CampaignSupervisor",
    "GridCell",
    "SupervisorPolicy",
    "run_cells_serial",
    "apply_em_overrides",
    "build_metric",
    "format_campaign_rows",
    "merge_campaign_results",
    "run_campaign",
]
