"""The paper's contribution: delay and EM trojan detection.

This package contains the detection methods themselves — the delay model
of Eqs. (1)-(4), the golden-model fingerprints, the delay detector, the
same-die and inter-die EM detectors, the local-maxima-sum metric and the
Eq. (5) false-negative model — plus the end-to-end platform that wires
them to the simulated measurement substrate.
"""

from .decision import DetectionOutcome, ThresholdPolicy
from .delay_detector import DelayComparisonResult, DelayDetector
from .delay_model import (
    NetDelayModel,
    delay_difference,
    detectable_trojan_delay_ps,
    expected_difference_noise_ps,
)
from .em_detector import (
    PopulationCharacterisation,
    PopulationEMDetector,
    SameDieComparison,
    SameDieEMDetector,
)
from .fingerprint import DelayFingerprint, EMReference
from .metrics import (
    L1TraceMetric,
    LocalMaximaSumMetric,
    MaxDifferenceMetric,
    detection_probability,
    false_negative_rate,
    required_separation,
)
from .pipeline import (
    DelayStudyResult,
    HTDetectionPlatform,
    PlatformConfig,
    PopulationEMStudyResult,
    SameDieEMStudyResult,
)
from .report import (
    delay_study_report,
    format_table,
    percentage,
    population_em_report,
    same_die_em_report,
)

__all__ = [
    "DetectionOutcome",
    "ThresholdPolicy",
    "DelayComparisonResult",
    "DelayDetector",
    "NetDelayModel",
    "delay_difference",
    "detectable_trojan_delay_ps",
    "expected_difference_noise_ps",
    "PopulationCharacterisation",
    "PopulationEMDetector",
    "SameDieComparison",
    "SameDieEMDetector",
    "DelayFingerprint",
    "EMReference",
    "L1TraceMetric",
    "LocalMaximaSumMetric",
    "MaxDifferenceMetric",
    "detection_probability",
    "false_negative_rate",
    "required_separation",
    "DelayStudyResult",
    "HTDetectionPlatform",
    "PlatformConfig",
    "PopulationEMStudyResult",
    "SameDieEMStudyResult",
    "delay_study_report",
    "format_table",
    "percentage",
    "population_em_report",
    "same_die_em_report",
]
