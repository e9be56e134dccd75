"""The paper's contribution: delay and EM trojan detection.

This package contains the detection methods themselves — the delay model
of Eqs. (1)-(4), the golden-model fingerprints, the delay detector, the
same-die and inter-die EM detectors, the local-maxima-sum metric and the
Eq. (5) false-negative model — plus the end-to-end platform that wires
them to the simulated measurement substrate.
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "DetectionOutcome": ".decision",
    "ThresholdPolicy": ".decision",
    "DelayComparisonResult": ".delay_detector",
    "DelayDetector": ".delay_detector",
    "NetDelayModel": ".delay_model",
    "delay_difference": ".delay_model",
    "detectable_trojan_delay_ps": ".delay_model",
    "expected_difference_noise_ps": ".delay_model",
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
    "PlatformConfig": ".pipeline",
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
