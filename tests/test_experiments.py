"""Integration tests for the experiment drivers (fast profile)."""

import numpy as np
import pytest

from repro.campaigns import CampaignEngine
from repro.experiments import (
    ExperimentConfig,
    fig1_timing,
    fig2_staircase,
    fig3_delay,
    fig4_em_trace,
    fig5_em_compare,
    fig6_pv,
    fig7_model,
    headline,
    table_ht_sizes,
)
from repro.experiments.config import FIXED_KEY, FIXED_PLAINTEXT
from repro.experiments.headline import PAPER_FALSE_NEGATIVE_RATES


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.fast()


@pytest.fixture(scope="module")
def exp_engine(config):
    return CampaignEngine(config.campaign_spec())


@pytest.fixture(scope="module")
def exp_platform(exp_engine):
    (cell,) = exp_engine.spec.grid()
    return exp_engine.platform_for(cell)


def test_experiment_config_profiles():
    paper = ExperimentConfig.paper()
    fast = ExperimentConfig.fast()
    assert paper.num_dies == 8
    assert paper.num_pk_pairs == 50
    assert fast.num_pk_pairs < paper.num_pk_pairs
    assert (fast.num_dies, fast.num_pk_pairs, fast.repetitions,
            fast.representative_pairs) == (4, 4, 3, (0, 3))
    with pytest.raises(ValueError):
        ExperimentConfig(num_dies=1)
    with pytest.raises(ValueError):
        ExperimentConfig(num_pk_pairs=2, representative_pairs=(5, 6))


def test_campaign_spec_derives_the_suite_cell():
    config = ExperimentConfig(num_dies=5, repetitions=4, seed=9,
                              num_plaintexts=2)
    spec = config.campaign_spec()
    (cell,) = spec.grid()
    assert spec.trojans == ("HT1", "HT2", "HT3")
    assert (cell.num_dies, cell.metric) == (5, "local_maxima_sum")
    assert (spec.seed, spec.delay_repetitions) == (9, 4)
    assert (spec.plaintext, spec.key) == (FIXED_PLAINTEXT, FIXED_KEY)
    assert spec.stimulus_plaintexts() == config.stimulus_plaintexts()
    platform = config.build_platform()
    assert (platform.config.num_dies, platform.config.seed) == (5, 9)
    assert (platform.config.delay.repetitions,
            platform.config.delay.seed) == (4, 9)


def test_suite_builds_the_golden_design_once(monkeypatch, tmp_path):
    """The suite's engine and every figure share one golden design,
    cold and warm."""
    from repro.experiments.runner import run_all
    from repro.fpga.design import GoldenDesign

    builds = []
    build = GoldenDesign.build.__func__

    def counting_build(cls, *args, **kwargs):
        builds.append(cls)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(GoldenDesign, "build", classmethod(counting_build))
    for _ in ("cold", "warm"):
        del builds[:]
        run_all(ExperimentConfig.fast(), store=tmp_path / "store")
        assert len(builds) == 1


def test_fig1_timing_constraint(config, exp_platform):
    result = fig1_timing.run(config, exp_platform)
    assert result.critical_path_ps > 0
    assert result.required_period_ps > result.critical_path_ps
    assert result.nominal_slack_ps > 0
    assert result.first_violating_period_ps() is not None
    assert result.first_violating_period_ps() < result.required_period_ps


def test_fig2_staircase(config, exp_platform):
    result = fig2_staircase.run(config, exp_platform)
    assert result.glitch_step_ps == pytest.approx(35.0)
    assert max(result.golden_staircase.values()) > 0
    assert result.golden_first_fault_step() is not None
    assert result.infected_first_fault_step() is not None
    assert result.infected_first_fault_step() <= result.golden_first_fault_step()


def test_fig3_delay_differences(config, exp_platform):
    result = fig3_delay.run(config, exp_platform)
    assert set(result.labels()) == {"Clean1", "Clean2", "HT_comb", "HT_seq"}
    assert result.infected_max_ps() > result.clean_max_ps()
    assert result.separation_ratio() > 1.5
    series = result.series_for("HT_comb", result.representative_pairs[0])
    assert series.delay_difference_ps.shape == (128,)
    assert series.affected_bits(result.clean_max_ps()) != []
    with pytest.raises(KeyError):
        result.series_for("nonexistent", 0)


def test_fig4_em_trace(config, exp_platform):
    result = fig4_em_trace.run(config, exp_platform)
    assert 2000 <= result.num_samples <= 4000
    assert result.rounds_visible()
    assert result.peak_amplitude > 1000


def test_fig5_same_die_comparison(config, exp_platform):
    result = fig5_em_compare.run(config, exp_platform)
    assert result.detected
    assert result.genuine_vs_infected_max > result.genuine_vs_genuine_max
    assert result.contrast() > 1.5


def test_fig6_process_variation_envelope(config, exp_engine):
    result = fig6_pv.run(config, exp_engine)
    assert len(result.golden_differences) == config.num_dies
    assert result.golden_envelope() > 0
    assert result.exceeds_pv_envelope("HT3") >= result.exceeds_pv_envelope("HT1")
    assert all(diff.shape == result.reference_mean.shape
               for diff in result.golden_differences)


def test_fig7_gaussian_model(config, exp_platform):
    result = fig7_model.run(config, exp_platform, trojan_name="HT3")
    assert result.mu > 0
    assert result.sigma > 0
    assert 0 <= result.analytic_false_negative <= 0.5
    # Eq. (5) matches the Monte-Carlo evaluation of the fitted model.
    assert result.analytic_false_negative == pytest.approx(
        result.empirical_false_negative, abs=0.05
    )
    assert result.empirical_false_positive == pytest.approx(
        result.empirical_false_negative, abs=0.05
    )


def test_table_ht_sizes(config, exp_platform):
    table = table_ht_sizes.run(config, exp_platform)
    assert table.aes_slice_count == 1836
    assert table.ordering_matches_paper()
    ht3 = table.row("HT3")
    assert ht3.fraction_of_aes == pytest.approx(0.017, rel=0.2)
    assert ht3.trigger_width == 128
    with pytest.raises(KeyError):
        table.row("unknown")


def test_headline_result(config, exp_engine):
    result = headline.run(config, exp_engine)
    assert result.is_monotone_decreasing()
    assert result.largest_trojan_detection() > 0.9
    rates = result.false_negative_rates()
    assert set(rates) == set(PAPER_FALSE_NEGATIVE_RATES)
    crossover = result.crossover_area_fraction(target_detection=0.9)
    assert crossover is not None and crossover <= 0.02
