"""End-to-end integration and robustness tests.

These tests walk the full story of the paper on a reduced campaign: an
untrusted foundry inserts a trojan, the verifier builds golden
references, and both side-channel methods must convict the infected
devices while acquitting the genuine ones — including under degraded
measurement conditions.
"""

import numpy as np
import pytest

from repro.campaigns import AcquisitionVariant, CampaignSpec
from repro.core.delay_detector import DelayDetector
from repro.core.em_detector import PopulationEMDetector, SameDieEMDetector
from repro.core.fingerprint import DelayFingerprint, EMReference
from repro.core.metrics import L1TraceMetric, LocalMaximaSumMetric
from repro.core.pipeline import HTDetectionPlatform
from repro.measurement.delay_meter import DelayMeasurementConfig, PathDelayMeter
from repro.measurement.noise import DelayNoiseModel


def test_full_story_delay_and_em_agree(platform, delay_study, population_study):
    """Both methods convict the trojans and acquit the genuine devices."""
    # Delay method (same die, Sec. III).
    verdicts = {label: comparison.outcome.is_infected
                for label, comparison in delay_study.comparisons.items()}
    assert verdicts == {"Clean1": False, "Clean2": False,
                        "HT_comb": True, "HT_seq": True}

    # EM method across dies (Sec. V): the big trojan separates clearly.
    characterisation = population_study.characterisations["HT3"]
    assert characterisation.detection_probability > 0.8


def test_detection_improves_with_trojan_size(population_study):
    mus = {name: char.mu
           for name, char in population_study.characterisations.items()}
    assert mus["HT3"] > mus["HT1"]


def test_local_maxima_metric_beats_plain_l1(population_traces):
    """Ablation: the paper's metric separates at least as well as plain L1."""
    golden, infected_traces = population_traces
    infected = infected_traces["HT3"]

    def effect_size(metric):
        _, characterisations = PopulationEMDetector(
            metric=metric).fit_and_characterise(golden, {"HT3": infected})
        characterisation = characterisations["HT3"]
        if characterisation.sigma == 0:
            return float("inf")
        return characterisation.mu / characterisation.sigma

    assert effect_size(LocalMaximaSumMetric()) > 0
    # Both should separate; the local-maxima metric must not be worse than
    # half the L1 baseline (it is usually better).
    assert effect_size(LocalMaximaSumMetric()) >= 0.5 * effect_size(L1TraceMetric())


def test_noise_free_campaign_has_zero_clean_difference(golden_design):
    """With every stochastic effect off, two clean campaigns are identical."""
    from repro.measurement.fault_injection import SetupViolationFaultModel

    deterministic_faults = SetupViolationFaultModel(
        metastability_window_ps=0.0, stale_capture_probability=1.0
    )
    platform = HTDetectionPlatform(CampaignSpec(die_counts=(2,)),
                                   golden=golden_design)
    platform.delay_meter = PathDelayMeter(DelayMeasurementConfig(
        repetitions=2, noise=DelayNoiseModel(sigma_ps=0.0),
        fault_model=deterministic_faults))
    study = platform.run_delay_study(trojan_names=(), num_pairs=2)
    difference = np.abs(study.measurements["Clean1"].mean_delay_ps()
                        - study.measurements["Clean2"].mean_delay_ps())
    assert difference.max() == pytest.approx(0.0)


def test_detection_survives_noisier_em_chain(engine_study):
    """Failure injection: a 4x noisier oscilloscope still catches HT3."""
    noisy = AcquisitionVariant.make("noisy",
                                    {"noise.sigma_single_shot": 3200.0})
    study = engine_study(trojans=("HT3",), die_counts=(4,),
                         variants=(noisy,))
    assert study.characterisations["HT3"].detection_probability > 0.7


def test_small_reference_population_degrades_gracefully(engine_study):
    """With only 2 reference dies the detector still runs and yields a rate."""
    study = engine_study(trojans=("HT2",), die_counts=(2,))
    rate = study.characterisations["HT2"].false_negative_rate
    assert 0.0 <= rate <= 0.5


def test_detectors_are_reusable_across_duts(platform, delay_study):
    """One fingerprint serves any number of devices under test."""
    detector = DelayDetector(delay_study.fingerprint)
    detector.calibrate_with_clean([delay_study.measurements["Clean1"]])
    first = detector.compare(delay_study.measurements["HT_comb"])
    second = detector.compare(delay_study.measurements["HT_comb"])
    assert first.outcome.score == pytest.approx(second.outcome.score)


def test_same_die_detector_with_single_reference_trace(platform, rng):
    """Degenerate golden set (one trace) still produces a usable threshold."""
    study = platform.run_same_die_em_study(("HT_comb",))
    reference = EMReference.from_traces(study.golden_traces[:1])
    detector = SameDieEMDetector(reference)
    comparison = detector.compare(study.infected_traces["HT_comb"].samples)
    assert comparison.outcome.threshold > 0
    assert comparison.outcome.is_infected


def test_campaigns_are_reproducible(engine_study):
    """Same seeds, same platform configuration => identical headline numbers."""
    def run_once():
        study = engine_study(trojans=("HT2",), die_counts=(3,), seed=77)
        return study.characterisations["HT2"].false_negative_rate

    assert run_once() == pytest.approx(run_once())
