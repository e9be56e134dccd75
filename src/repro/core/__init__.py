"""The paper's contribution: delay and EM trojan detection.

This package contains the detection methods themselves — the
golden-model fingerprints, the delay detector and its Eq. (4) delay
differences, the same-die and inter-die EM detectors, the
local-maxima-sum metric and the Eq. (5) false-negative model — plus the
end-to-end platform that wires them to the simulated measurement
substrate.  A platform is sized by one
:class:`~repro.campaigns.spec.CampaignSpec` (its largest die count, its
delay bench), and a campaign engine builds exactly one
(``engine.platform``).  The Eq. (2)-(3) terms of a net's delay are realised by the
measurement substrate itself (routing, intra-die variation, bench noise
and the trojan's loading), not by a separate model.
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "DetectionOutcome": ".decision",
    "ThresholdPolicy": ".decision",
    "DelayComparisonResult": ".delay_detector",
    "DelayDetector": ".delay_detector",
    "PopulationCharacterisation": ".em_detector",
    "PopulationEMDetector": ".em_detector",
    "SameDieComparison": ".em_detector",
    "SameDieEMDetector": ".em_detector",
    "DelayFingerprint": ".fingerprint",
    "EMReference": ".fingerprint",
    "L1TraceMetric": ".metrics",
    "LocalMaximaSumMetric": ".metrics",
    "MaxDifferenceMetric": ".metrics",
    "detection_probability": ".metrics",
    "false_negative_rate": ".metrics",
    "required_separation": ".metrics",
    "DelayStudyResult": ".pipeline",
    "HTDetectionPlatform": ".pipeline",
    "PopulationEMStudyResult": ".pipeline",
    "SameDieEMStudyResult": ".pipeline",
    "delay_study_report": ".report",
    "format_table": ".report",
    "percentage": ".report",
    "population_em_report": ".report",
    "same_die_em_report": ".report",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
