"""Tests for fingerprints, decision policies and the two detectors."""

import numpy as np
import pytest

from repro.core.decision import DetectionOutcome, FixedThresholdPolicy, ThresholdPolicy
from repro.core.delay_detector import DelayDetector
from repro.core.em_detector import PopulationEMDetector, SameDieEMDetector
from repro.core.fingerprint import DelayFingerprint, EMReference
from repro.core.metrics import LocalMaximaSumMetric


# -- decision policies -----------------------------------------------------------


def test_threshold_policy_from_reference_scores():
    policy = ThresholdPolicy(num_sigmas=2.0)
    reference = [10.0, 12.0, 11.0, 9.0]
    threshold = policy.threshold(reference)
    assert threshold > np.mean(reference)
    outcome = policy.decide("dut", threshold + 1, reference)
    assert outcome.is_infected
    assert outcome.margin() == pytest.approx(1.0)
    clean = policy.decide("dut", threshold - 1, reference)
    assert not clean.is_infected
    with pytest.raises(ValueError):
        policy.threshold([])
    with pytest.raises(ValueError):
        ThresholdPolicy(num_sigmas=-1)


def test_fixed_threshold_policy():
    policy = FixedThresholdPolicy(100.0)
    assert policy.threshold([1.0]) == 100.0
    assert policy.decide("d", 150.0, []).is_infected
    assert not policy.decide("d", 50.0, []).is_infected


def test_detection_outcome_fields():
    outcome = DetectionOutcome("x", 5.0, 3.0, True, details="why")
    assert outcome.margin() == pytest.approx(2.0)


# -- fingerprints ---------------------------------------------------------------


def test_delay_fingerprint_from_measurement(delay_study):
    fingerprint = delay_study.fingerprint
    assert fingerprint.num_pairs == 3
    assert fingerprint.num_bits == 128
    assert fingerprint.mean_delay_ps().shape == (3, 128)
    assert fingerprint.noise_floor_ps() >= 0
    clone = DelayFingerprint.from_measurement(delay_study.measurements["Clean1"])
    assert clone.num_pairs == 3


def test_delay_fingerprint_validation():
    with pytest.raises(ValueError):
        DelayFingerprint(np.zeros((2, 128)), np.zeros((3, 128)), 35.0, 10)
    with pytest.raises(ValueError):
        DelayFingerprint(np.zeros((2, 128)), np.zeros((2, 128)), 0.0, 10)
    with pytest.raises(ValueError):
        DelayFingerprint(np.zeros((2, 128)), np.zeros((2, 128)), 35.0, 0)


def test_em_reference_from_traces():
    traces = [np.ones(50), np.ones(50) * 3]
    reference = EMReference.from_traces(traces)
    assert reference.num_samples == 50
    assert np.allclose(reference.mean, 2.0)
    assert reference.noise_floor() > 0
    single = EMReference.from_traces([np.ones(10)])
    assert single.noise_floor() == 0.0
    with pytest.raises(ValueError):
        EMReference(np.zeros(5), np.zeros(4), 2)
    with pytest.raises(ValueError):
        EMReference(np.zeros(5), np.zeros(5), 0)


# -- delay detector -----------------------------------------------------------------


def test_delay_detector_separates_clean_and_infected(delay_study):
    comparisons = delay_study.comparisons
    assert not comparisons["Clean1"].outcome.is_infected
    assert not comparisons["Clean2"].outcome.is_infected
    assert comparisons["HT_comb"].outcome.is_infected
    assert comparisons["HT_seq"].outcome.is_infected
    assert comparisons["HT_comb"].max_difference_ps > \
        comparisons["Clean2"].max_difference_ps


def test_delay_detector_suspicious_bits_only_for_infected(delay_study):
    assert delay_study.comparisons["Clean1"].suspicious_bits() == []
    assert len(delay_study.comparisons["HT_comb"].suspicious_bits()) > 0


def test_delay_detector_pair_profile_shape(delay_study):
    profile = delay_study.comparisons["HT_comb"].pair_profile(0)
    assert profile.shape == (128,)
    with pytest.raises(ValueError):
        delay_study.comparisons["HT_comb"].pair_profile(99)


def test_delay_detector_rejects_mismatched_campaigns(delay_study, platform):
    detector = DelayDetector(delay_study.fingerprint)
    other = platform.run_delay_study(trojan_names=(), num_pairs=2,
                                     pair_seed=123)
    with pytest.raises(ValueError):
        detector.compare(other.measurements["Clean1"])


def test_delay_detector_compare_many(delay_study):
    detector = DelayDetector(delay_study.fingerprint)
    detector.calibrate_with_clean([delay_study.measurements["Clean1"]])
    results = detector.compare_many(list(delay_study.measurements.values()))
    assert set(results) == set(delay_study.measurements)


# -- same-die EM detector ----------------------------------------------------------


def test_same_die_detector_flags_infected(platform):
    study = platform.run_same_die_em_study(("HT_comb",))
    comparison = study.comparisons["HT_comb"]
    assert comparison.outcome.is_infected
    assert comparison.max_difference > comparison.noise_floor
    assert comparison.significant_samples().size > 0


def test_same_die_detector_accepts_genuine(platform, rng):
    study = platform.run_same_die_em_study(("HT_comb",))
    detector = SameDieEMDetector(study.reference)
    genuine = study.golden_traces[1]
    comparison = detector.compare(genuine, label="genuine-recheck")
    assert not comparison.outcome.is_infected


def test_same_die_detector_rejects_length_mismatch(platform):
    study = platform.run_same_die_em_study(("HT_comb",))
    detector = SameDieEMDetector(study.reference)
    with pytest.raises(ValueError):
        detector.compare(np.zeros(10))
    with pytest.raises(ValueError):
        SameDieEMDetector(study.reference, num_sigmas=0)


# -- population EM detector -----------------------------------------------------------


def test_population_detector_requires_fit(population_traces):
    golden, _ = population_traces
    detector = PopulationEMDetector()
    with pytest.raises(RuntimeError):
        detector.score(golden[0])
    with pytest.raises(RuntimeError):
        detector.golden_scores()
    with pytest.raises(ValueError):
        detector.fit_reference(golden[:1])


def test_population_detector_characterisation(population_study):
    characterisations = population_study.characterisations
    assert characterisations["HT3"].mu > characterisations["HT1"].mu
    assert characterisations["HT3"].false_negative_rate <= \
        characterisations["HT1"].false_negative_rate
    for char in characterisations.values():
        assert 0.0 <= char.false_negative_rate <= 0.5
        assert char.detection_probability == pytest.approx(
            1.0 - char.false_negative_rate
        )


def test_population_detector_flags_large_trojan(population_traces):
    golden, infected = population_traces
    detector = PopulationEMDetector(metric=LocalMaximaSumMetric())
    detector.fit_reference(golden)
    flagged = 0
    for trace in infected["HT3"]:
        if detector.compare(trace).outcome.is_infected:
            flagged += 1
    assert flagged >= len(infected["HT3"]) // 2


def test_population_detector_characterise_requires_traces(population_traces):
    golden, _ = population_traces
    detector = PopulationEMDetector()
    detector.fit_reference(golden)
    with pytest.raises(ValueError):
        detector.characterise([])
