"""Integration tests for the end-to-end platform and its reports."""

import pytest

from repro.core.pipeline import HTDetectionPlatform, PlatformConfig
from repro.core.report import (
    delay_study_report,
    format_table,
    headline_summary,
    percentage,
    population_em_report,
    same_die_em_report,
)


def test_platform_config_validation():
    with pytest.raises(ValueError):
        PlatformConfig(num_dies=0)


def test_platform_builds_and_caches_infected_designs(platform):
    first = platform.infected_design("HT_comb")
    second = platform.infected_design("HT_comb")
    assert first is second
    assert first.trojan.name == "HT_comb"


def test_platform_dut_factories(platform):
    golden = platform.golden_dut(1)
    infected = platform.infected_dut("HT1", 2)
    assert not golden.is_infected
    assert infected.is_infected
    assert golden.die.die_id == 1
    assert infected.die.die_id == 2


def test_delay_study_structure(delay_study):
    assert set(delay_study.comparisons) == {"Clean1", "Clean2", "HT_comb", "HT_seq"}
    assert set(delay_study.measurements) == set(delay_study.comparisons)
    assert delay_study.fingerprint.num_pairs == len(delay_study.pairs)
    assert delay_study.labels() == list(delay_study.comparisons)


def test_delay_study_detects_both_trojans(delay_study):
    assert delay_study.comparisons["HT_comb"].outcome.is_infected
    assert delay_study.comparisons["HT_seq"].outcome.is_infected
    assert not delay_study.comparisons["Clean1"].outcome.is_infected


def test_same_die_em_study(platform):
    study = platform.run_same_die_em_study(("HT_comb",))
    assert len(study.golden_traces) == 2
    assert "HT_comb" in study.infected_traces
    assert study.comparisons["HT_comb"].outcome.is_infected
    assert study.reference.num_samples == len(study.golden_traces[0])


def test_population_em_study(population_study, platform):
    assert len(population_study.tensors.golden) == len(platform.population)
    rates = population_study.false_negative_rates()
    assert set(rates) == {"HT1", "HT3"}
    assert rates["HT3"] <= rates["HT1"]
    assert population_study.trojan_area_fractions["HT3"] > \
        population_study.trojan_area_fractions["HT1"]


def test_format_table_alignment():
    table = format_table(["a", "bbbb"], [["1", "2"], ["333", "4"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    with pytest.raises(ValueError):
        format_table([], [])
    with pytest.raises(ValueError):
        format_table(["a"], [["1", "2"]])


def test_percentage_formatting():
    assert percentage(0.26) == "26.0%"
    assert percentage(0.051, digits=0) == "5%"


def test_reports_render(delay_study, population_study, platform):
    delay_text = delay_study_report(delay_study)
    assert "HT_comb" in delay_text and "verdict" in delay_text
    same_die = platform.run_same_die_em_study(("HT_comb",))
    em_text = same_die_em_report(same_die)
    assert "noise floor" in em_text
    population_text = population_em_report(population_study)
    assert "false negative" in population_text
    summary = headline_summary(population_study)
    assert set(summary) == {"HT1", "HT3"}
