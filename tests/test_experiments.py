"""Integration tests for the experiment drivers (quick suite spec)."""

import hashlib

import numpy as np
import pytest

from repro.campaigns import CampaignEngine
from repro.cli import main
from repro.experiments import (
    fig1_timing,
    fig2_staircase,
    fig3_delay,
    fig4_em_trace,
    fig5_em_compare,
    fig6_pv,
    fig7_model,
    headline,
    run_all,
    suite_spec,
    table_ht_sizes,
)
from repro.experiments import runner
from repro.experiments.headline import PAPER_FALSE_NEGATIVE_RATES
from repro.experiments.runner import (
    SUITE_ROWS_VERSION,
    ExperimentSummary,
    SuiteResult,
)
from repro.stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT
from repro.store import ArtifactStore
from repro.store.artifact_store import encode_json_bytes

from oracles import find_local_maxima


@pytest.fixture(scope="module")
def exp_engine():
    return CampaignEngine(suite_spec(quick=True))


def test_suite_spec_profiles():
    """The paper profile is the paper's campaign; quick shrinks every
    size and keeps the rest."""
    paper, quick = suite_spec(), suite_spec(quick=True)
    for spec in (paper, quick):
        (cell,) = spec.grid()
        assert spec.name == "experiments"
        assert spec.trojans == ("HT1", "HT2", "HT3")
        assert cell.metric == "local_maxima_sum"
        assert (spec.seed, spec.num_plaintexts) == (2015, 1)
        assert (spec.plaintext, spec.key) == (DEFAULT_PLAINTEXT, DEFAULT_KEY)
    assert (paper.die_counts, paper.num_pk_pairs,
            paper.delay_repetitions) == ((8,), 50, 10)
    assert (quick.die_counts, quick.num_pk_pairs,
            quick.delay_repetitions) == ((4,), 4, 3)
    assert suite_spec(quick=True, seed=9).seed == 9


@pytest.mark.parametrize("quick", [False, True])
def test_fig2_and_fig3_measure_the_suite_spec_sizes(quick):
    """Fig. 3 measures the spec's ``num_pk_pairs`` pairs with its
    ``delay_repetitions`` on the engine's platform, and Fig. 2 draws its
    pair from the same pairs: the sizes the suite's spec records are
    the sizes the figures measure."""
    spec = suite_spec(quick=quick)
    engine = CampaignEngine(spec)
    assert len(engine.platform.population) == max(spec.die_counts)

    study = fig3_delay.run(engine).study
    assert len(study.pairs) == spec.num_pk_pairs
    for measurement in study.measurements.values():
        assert len(measurement.pairs) == spec.num_pk_pairs
        assert {pair.steps_to_fault.shape for pair in measurement.pairs} \
            == {(spec.delay_repetitions, 128)}

    fig2_staircase.run(engine, pair_index=spec.num_pk_pairs - 1)
    with pytest.raises(IndexError):
        fig2_staircase.run(engine, pair_index=spec.num_pk_pairs)


def test_suite_builds_the_golden_design_once(monkeypatch, tmp_path):
    """The suite's engine and every figure share one golden design,
    cold and warm."""
    from repro.fpga.design import GoldenDesign

    builds = []
    build = GoldenDesign.build.__func__

    def counting_build(cls, *args, **kwargs):
        builds.append(cls)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(GoldenDesign, "build", classmethod(counting_build))
    for _ in ("cold", "warm"):
        del builds[:]
        run_all(store=tmp_path / "store")
        assert len(builds) == 1


def _assert_audits_clean(root):
    from repro.store import ArtifactStore

    assert ArtifactStore(root).fsck(wait_s=1.0).clean()


def test_suite_leaves_its_store_clean(tmp_path):
    run_all(store=tmp_path / "store")
    _assert_audits_clean(tmp_path / "store")


def test_suite_leaves_its_store_clean_when_a_driver_raises(monkeypatch,
                                                           tmp_path):
    """Fig. 6 writes the population through the store; Fig. 7 then
    fails, and what was written is whole, with no lock left held."""
    def broken(*args, **kwargs):
        raise RuntimeError("fig7 failed")

    monkeypatch.setattr(fig7_model, "run", broken)
    with pytest.raises(RuntimeError, match="fig7 failed"):
        run_all(store=tmp_path / "store")
    assert list((tmp_path / "store" / "objects").iterdir())
    _assert_audits_clean(tmp_path / "store")


# -- the stored suite record ----------------------------------------------------

#: SHA-256 of the quick suite's ``experiment_suite`` payload, pinned with
#: the row-format version its key holds: a change to any printed row
#: fails here, and re-pinning it means bumping ``SUITE_ROWS_VERSION``
#: (so stores written before the change miss instead of printing stale
#: rows).
QUICK_SUITE_RECORD = (
    1, "e9fe11738c42af1172c317128495cccec169b94ad742eb8f87766747d737bdc9")


def test_quick_suite_record_is_pinned_with_its_version(exp_engine):
    rows = runner._run_drivers(exp_engine).summaries
    digest = hashlib.sha256(encode_json_bytes(rows)).hexdigest()
    assert (SUITE_ROWS_VERSION, digest) == QUICK_SUITE_RECORD


def _experiments(capsys, store, *flags):
    code = main(["experiments", *flags, "--store", str(store)])
    return code, capsys.readouterr().out


def _suite_records(store):
    return [entry for entry in ArtifactStore(store).index().values()
            if entry.kind == "experiment_suite"]


def _drivers_must_not_run(monkeypatch):
    def fail(engine):
        raise AssertionError("the suite ran although its record is stored")

    monkeypatch.setattr(runner, "_run_drivers", fail)


def _fake_drivers(monkeypatch, shape_ok=True):
    """Stand-in drivers: one summary row; returns the list of runs."""
    runs = []

    def fake(engine):
        runs.append(engine.spec)
        return SuiteResult([ExperimentSummary(
            "fake", "claim", f"seed {engine.spec.seed}", shape_ok)])

    monkeypatch.setattr(runner, "_run_drivers", fake)
    return runs


def test_warm_suite_prints_its_one_stored_record(monkeypatch, capsys,
                                                 tmp_path):
    """A rerun prints the cold run's table byte for byte, with its exit
    code, from the one ``experiment_suite`` record and runs no driver;
    another seed or the paper sizes miss."""
    store = tmp_path / "store"
    cold = _experiments(capsys, store, "--quick")
    assert cold[0] == 0
    assert len(_suite_records(store)) == 1
    _drivers_must_not_run(monkeypatch)
    assert _experiments(capsys, store, "--quick") == cold
    assert len(_suite_records(store)) == 1

    runs = _fake_drivers(monkeypatch)
    for flags in (("--quick", "--seed", "9"), ()):
        assert _experiments(capsys, store, *flags)[0] == 0
    assert [(spec.seed, spec.die_counts) for spec in runs] == [
        (9, (4,)), (2015, (8,))]
    assert len(_suite_records(store)) == 3


def test_corrupt_suite_record_is_quarantined_and_recomputed(monkeypatch,
                                                            capsys, tmp_path):
    store = tmp_path / "store"
    runs = _fake_drivers(monkeypatch)
    cold = _experiments(capsys, store, "--quick")
    (entry,) = _suite_records(store)
    (store / "objects" / entry.filename).write_bytes(b"{torn")
    assert _experiments(capsys, store, "--quick") == cold
    assert len(runs) == 2
    assert [path.name for path in (store / "quarantine").iterdir()] == [
        entry.filename]
    _drivers_must_not_run(monkeypatch)
    assert _experiments(capsys, store, "--quick") == cold


def test_stored_failing_shape_still_exits_1(monkeypatch, capsys, tmp_path):
    store = tmp_path / "store"
    _fake_drivers(monkeypatch, shape_ok=False)
    cold = _experiments(capsys, store, "--quick")
    assert cold[0] == 1 and "NO" in cold[1]
    _drivers_must_not_run(monkeypatch)
    assert _experiments(capsys, store, "--quick") == cold


def test_fig1_timing_constraint(exp_engine):
    result = fig1_timing.run(exp_engine)
    assert result.critical_path_ps > 0
    assert result.required_period_ps > result.critical_path_ps
    assert result.nominal_slack_ps > 0
    assert result.first_violating_period_ps() is not None
    assert result.first_violating_period_ps() < result.required_period_ps


def test_fig2_staircase(exp_engine):
    result = fig2_staircase.run(exp_engine)
    assert result.glitch_step_ps == pytest.approx(35.0)
    assert max(result.golden_staircase.values()) > 0
    assert result.golden_first_fault_step() is not None
    assert result.infected_first_fault_step() is not None
    assert result.infected_first_fault_step() <= result.golden_first_fault_step()


def test_fig3_delay_differences(exp_engine):
    result = fig3_delay.run(exp_engine)
    assert {s.label for s in result.series} == {"Clean1", "Clean2",
                                                "HT_comb", "HT_seq"}
    # The quick campaign plots its first and last of 4 pairs.
    assert result.representative_pairs == [0, 3]
    assert result.study.comparisons["HT_comb"].outcome.is_infected
    assert result.study.comparisons["HT_seq"].outcome.is_infected
    assert not result.study.comparisons["Clean1"].outcome.is_infected
    assert result.infected_max_ps() > result.clean_max_ps()
    assert result.separation_ratio() > 1.5
    pair = result.representative_pairs[0]
    (series,) = [s for s in result.series
                 if s.label == "HT_comb" and s.pair_index == pair]
    assert series.delay_difference_ps.shape == (128,)
    assert (series.delay_difference_ps > result.clean_max_ps()).any()


def test_fig4_em_trace(exp_engine):
    result = fig4_em_trace.run(exp_engine)
    assert 2000 <= result.num_samples <= 4000
    assert result.rounds_visible()
    assert result.peak_amplitude > 1000


def test_fig4_burst_count_matches_scalar_peak_oracle(exp_engine):
    """Fig. 4 counts bursts with the batch peak finder on its one row;
    the count is the scalar oracle's peak count on the same envelope."""
    result = fig4_em_trace.run(exp_engine)
    envelope = np.abs(result.trace.samples)
    distance = max(2, result.samples_per_cycle // 2)
    expected = find_local_maxima(envelope, min_height=0.3 * envelope.max(),
                                 min_distance=distance)
    assert result.round_burst_count == len(expected)


def test_fig5_same_die_comparison(exp_engine):
    result = fig5_em_compare.run(exp_engine)
    assert result.detected
    assert result.genuine_vs_infected_max > result.genuine_vs_genuine_max
    assert result.contrast() > 1.5


def test_fig6_process_variation_envelope(exp_engine):
    result = fig6_pv.run(exp_engine)
    assert len(result.golden_differences) == exp_engine.spec.die_counts[0]
    assert result.golden_envelope() > 0
    assert result.exceeds_pv_envelope("HT3") >= result.exceeds_pv_envelope("HT1")
    assert all(diff.shape == result.reference_mean.shape
               for diff in result.golden_differences)


@pytest.mark.parametrize("trojan_name", ["HT2", "HT3"])
def test_fig7_gaussian_model(exp_engine, trojan_name):
    result = fig7_model.run(exp_engine, trojan_name=trojan_name)
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


def test_table_ht_sizes(exp_engine):
    table = table_ht_sizes.run(exp_engine)
    assert table.aes_slice_count == 1836
    assert table.ordering_matches_paper()
    ht3 = table.row("HT3")
    assert ht3.fraction_of_aes == pytest.approx(0.017, rel=0.2)
    assert ht3.trigger_width == 128
    with pytest.raises(KeyError):
        table.row("unknown")


def test_headline_result(exp_engine):
    result = headline.run(exp_engine)
    assert result.is_monotone_decreasing()
    assert result.largest_trojan_detection() > 0.9
    rates = result.false_negative_rates()
    assert set(rates) == set(PAPER_FALSE_NEGATIVE_RATES)
    # The smallest measured size that reaches 90 % detection is <= 2 %.
    assert min(row.area_fraction for row in result.rows
               if row.detection_probability >= 0.9) <= 0.02
