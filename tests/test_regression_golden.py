"""Golden-value regression tests for the seeded headline outputs.

These tests pin the exact numbers the seeded reproduction produces for
the paper's headline campaigns — the per-trojan false-negative rates of
the Sec. V population study and the Sec. III delay-study verdicts.  They
were captured from the seed implementation (serial per-die loops) and
must survive every refactor bit-for-bit: the batched acquisition paths,
the campaign engine and any future optimisation are required to be
*exact* reimplementations, so a change in any of these numbers means a
silent behaviour change, not noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import HTDetectionPlatform, PlatformConfig

#: Campaign geometry the golden numbers were captured on.
NUM_DIES = 8
SEED = 2015

#: Seed-captured per-trojan false-negative rates (8 dies, seed 2015,
#: default acquisition config, local-maxima-sum metric).
GOLDEN_FALSE_NEGATIVE_RATES = {
    "HT1": 0.23984139297834622,
    "HT2": 0.16697142493686135,
    "HT3": 0.0195361345473109,
}

#: Seed-captured Gaussian separations of the same study.
GOLDEN_MU = {
    "HT1": 3766.146202154134,
    "HT2": 6345.426352893868,
    "HT3": 17355.591727855317,
}

#: Seed-captured delay-study device scores (max |Delta D| in ps) and
#: verdicts for the two clean controls and the two Sec. III trojans
#: (num_pairs=3, default measurement config).
GOLDEN_DELAY_SCORES_PS = {
    "Clean1": (28.0, False),
    "Clean2": (24.5, False),
    "HT_comb": (262.5, True),
    "HT_seq": (140.0, True),
}
GOLDEN_DELAY_THRESHOLD_PS = 65.86845977753815


@pytest.fixture(scope="module")
def golden_platform():
    return HTDetectionPlatform(
        config=PlatformConfig(num_dies=NUM_DIES, seed=SEED)
    )


@pytest.fixture(scope="module")
def population_study(golden_platform):
    from repro.campaigns import CampaignEngine, CampaignSpec

    spec = CampaignSpec(name="golden", die_counts=(NUM_DIES,), seed=SEED)
    (cell,) = spec.grid()
    return CampaignEngine(spec, golden=golden_platform.golden
                          ).population_study(cell)


@pytest.fixture(scope="module")
def delay_study(golden_platform):
    return golden_platform.run_delay_study(
        trojan_names=("HT_comb", "HT_seq"), num_pairs=3
    )


def test_headline_false_negative_rates_pinned(population_study):
    rates = population_study.false_negative_rates()
    assert set(rates) == set(GOLDEN_FALSE_NEGATIVE_RATES)
    for name, expected in GOLDEN_FALSE_NEGATIVE_RATES.items():
        assert rates[name] == pytest.approx(expected, abs=1e-12), name


def test_headline_gaussian_separation_pinned(population_study):
    for name, expected in GOLDEN_MU.items():
        measured = population_study.characterisations[name].mu
        assert measured == pytest.approx(expected, abs=1e-6), name


def test_delay_study_verdicts_pinned(delay_study):
    assert set(delay_study.comparisons) == set(GOLDEN_DELAY_SCORES_PS)
    for label, (score, infected) in GOLDEN_DELAY_SCORES_PS.items():
        comparison = delay_study.comparisons[label]
        assert comparison.outcome.is_infected is infected, label
        assert comparison.max_difference_ps == pytest.approx(score,
                                                             abs=1e-9), label
        assert comparison.outcome.threshold == pytest.approx(
            GOLDEN_DELAY_THRESHOLD_PS, abs=1e-9
        ), label


def test_campaign_engine_reproduces_golden_numbers():
    """The campaign engine path must agree with the pinned study."""
    from repro.campaigns import CampaignEngine, CampaignSpec

    spec = CampaignSpec(name="golden", trojans=("HT1", "HT2", "HT3"),
                        die_counts=(NUM_DIES,), seed=SEED)
    cell = CampaignEngine(spec).run().cells[0]
    rates = cell.false_negative_rates()
    for name, expected in GOLDEN_FALSE_NEGATIVE_RATES.items():
        assert rates[name] == pytest.approx(expected, abs=1e-12), name


def test_store_backed_campaign_cold_vs_warm_bit_identical(tmp_path):
    """A warm artifact-store run returns bit-identical rows to a cold run.

    Store-backed variant of the seeded headline study: the cold run
    populates the content-addressed store, the warm run (a fresh engine
    on the same store) must load every artifact and still reproduce the
    pinned false-negative rates exactly — byte-for-byte equal summary
    rows, not merely approximately equal scores.
    """
    from repro.campaigns import CampaignEngine, CampaignSpec

    spec = CampaignSpec(name="golden-store", trojans=("HT1", "HT2", "HT3"),
                        die_counts=(NUM_DIES,), seed=SEED)
    store_dir = tmp_path / "store"
    cold = CampaignEngine(spec, store=store_dir).run()
    warm = CampaignEngine(spec, store=store_dir).run()

    cold_rows = [row.to_dict() for row in cold.rows()]
    warm_rows = [row.to_dict() for row in warm.rows()]
    assert cold_rows == warm_rows
    for rows in (cold_rows, warm_rows):
        measured = {row["trojan"]: row["false_negative_rate"] for row in rows}
        for name, expected in GOLDEN_FALSE_NEGATIVE_RATES.items():
            assert measured[name] == pytest.approx(expected, abs=1e-12), name

    # The warm engine really did read through the store: the same spec
    # under a different campaign name (a pure execution detail) also
    # resolves every cell from the manifest without recomputing.
    renamed = CampaignSpec.from_dict({**spec.to_dict(), "name": "renamed"})
    engine = CampaignEngine(renamed, store=store_dir)
    engine.run_cell = None  # any recomputation would raise TypeError
    renamed_rows = [row.to_dict() for row in engine.run().rows()]
    assert renamed_rows == cold_rows


def test_pinned_numbers_fail_loudly_when_perturbed(population_study):
    """A perturbed acquisition must move the pinned headline numbers.

    This guards the regression tests themselves: the pinned quantities
    must be *sensitive* to the physics, not constants that would survive
    a broken pipeline.
    """
    from repro.core.em_detector import PopulationEMDetector

    tensors = population_study.tensors
    # Inject a tiny extra emission into every infected trace — the FN
    # rates must respond.
    emission = 50.0 * np.sin(np.arange(tensors.golden.shape[1]) / 7.0)
    infected = {name: matrix + emission
                for name, matrix in tensors.infected.items()}
    _, perturbed = PopulationEMDetector().fit_and_characterise(
        tensors.golden, infected)
    rates = {name: char.false_negative_rate
             for name, char in perturbed.items()}
    assert any(
        abs(rates[name] - GOLDEN_FALSE_NEGATIVE_RATES[name]) > 1e-6
        for name in GOLDEN_FALSE_NEGATIVE_RATES
    )
