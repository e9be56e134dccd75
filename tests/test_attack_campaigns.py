"""Tests for the fault-injection attack campaigns (glitch grids, engine, CLI)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    GlitchGrid,
    device_fault_coverages,
    recover_from_sweep,
)
from repro.campaigns import (
    AcquisitionVariant,
    CampaignEngine,
    CampaignSpec,
    KNOWN_FAULT_METRICS,
)
from repro.cli import build_parser, main
from repro.crypto.keyschedule import last_round_key
from repro.measurement.clock import TimingBudget


def _fault_spec(**overrides):
    kwargs = dict(
        name="fault-unit", trojans=("HT1",), die_counts=(3,),
        variants=(AcquisitionVariant.make("paper"),),
        metrics=("fault_coverage",), num_plaintexts=3, seed=9,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


# -- glitch grid ---------------------------------------------------------------


def test_glitch_grid_points_ordering_and_count():
    grid = GlitchGrid(offsets_ps=(1000.0, 2000.0), widths_ps=(500.0,),
                      periods_ps=(4000.0, 5000.0))
    points = grid.points()
    assert grid.num_points == len(points) == 4
    assert [point.index for point in points] == [0, 1, 2, 3]
    # period-major, then offset, then width
    assert [(p.period_ps, p.offset_ps) for p in points] == [
        (4000.0, 1000.0), (4000.0, 2000.0),
        (5000.0, 1000.0), (5000.0, 2000.0),
    ]
    assert np.array_equal(grid.effective_periods(),
                          [p.effective_period_ps for p in points])


def test_glitch_grid_validation():
    with pytest.raises(ValueError):
        GlitchGrid(offsets_ps=(), widths_ps=(1.0,), periods_ps=(1.0,))
    with pytest.raises(ValueError):
        GlitchGrid(offsets_ps=(-1.0,), widths_ps=(1.0,), periods_ps=(1.0,))


def test_calibrated_grid_spans_the_fault_depth_range():
    budget = TimingBudget()
    worst = 4000.0
    grid = GlitchGrid.calibrated(worst, budget)
    critical = budget.required_period_ps(worst)
    assert len(grid.periods_ps) == 1
    assert grid.periods_ps[0] > critical
    offsets = np.asarray(grid.offsets_ps)
    assert np.all(np.diff(offsets) > 0)
    assert offsets[0] == pytest.approx(0.35 * critical)
    assert offsets[-1] < critical
    assert len(grid.widths_ps) == 3


def test_calibrated_grid_validation():
    budget = TimingBudget()
    with pytest.raises(ValueError):
        GlitchGrid.calibrated(-1.0, budget)
    with pytest.raises(ValueError):
        GlitchGrid.calibrated(4000.0, budget, num_offsets=0)
    with pytest.raises(ValueError):
        GlitchGrid.calibrated(4000.0, budget, deep_fraction=1.5)


def test_fault_coverage_counts_faulted_captures():
    correct = np.zeros((4, 16), dtype=np.uint8)
    faulted = np.zeros((2, 4, 16), dtype=np.uint8)
    faulted[0, 0, 3] = 1
    faulted[1, 2, 7] = 9
    faulted[1, 3, 7] = 9
    per_device = device_fault_coverages(correct, faulted)
    assert per_device.tolist() == pytest.approx([1 / 4, 2 / 4])
    assert per_device.mean() == pytest.approx(3 / 8)
    with pytest.raises(ValueError):
        device_fault_coverages(correct, correct)


# -- engine --------------------------------------------------------------------


@pytest.fixture(scope="module")
def fault_campaign(golden_design):
    spec = _fault_spec()
    engine = CampaignEngine(spec, golden=golden_design)
    return spec, engine, engine.run()


def test_fault_metric_is_registered():
    assert "fault_coverage" in KNOWN_FAULT_METRICS
    spec = _fault_spec()
    cells = spec.grid()
    assert len(cells) == 1
    assert cells[0].is_fault and not cells[0].is_delay


def test_fault_cell_produces_rows(fault_campaign):
    spec, _engine, result = fault_campaign
    rows = [row for cell in result.cells for row in cell.rows]
    assert [row.trojan for row in rows] == ["HT1"]
    for row in rows:
        assert row.metric == "fault_coverage"
        assert 0.0 <= row.detection_probability <= 1.0


def test_fault_sweep_data_shapes_and_coverage(fault_campaign):
    spec, engine, _result = fault_campaign
    cell = next(cell for cell in spec.grid() if cell.is_fault)
    data = engine.fault_sweep_data(cell)
    num_stimuli = spec.num_plaintexts
    assert data.correct.shape == (num_stimuli, 16)
    assert data.plaintexts.shape == (num_stimuli, 16)
    assert data.golden_faulted.shape == (
        3, data.grid.num_points, num_stimuli, 16)
    assert set(data.infected_faulted) == {"HT1"}
    golden_cov = device_fault_coverages(data.correct, data.golden_faulted)
    infected_cov = device_fault_coverages(data.correct,
                                          data.infected_faulted["HT1"])
    # The trojan lengthens sensitised paths: its dies fault on more of
    # the grid than their clean counterparts.
    assert infected_cov.mean() > golden_cov.mean()


def test_fault_cells_are_deterministic(golden_design):
    first = CampaignEngine(_fault_spec(), golden=golden_design).run()
    second = CampaignEngine(_fault_spec(), golden=golden_design).run()
    assert [cell.rows for cell in first.cells] == \
        [cell.rows for cell in second.cells]


def test_fault_sweep_store_roundtrip(golden_design, tmp_path):
    store = tmp_path / "store"
    spec = _fault_spec()
    cell = next(c for c in spec.grid() if c.is_fault)
    cold = CampaignEngine(spec, golden=golden_design, store=store)
    cold_data = cold.fault_sweep_data(cell)
    warm = CampaignEngine(_fault_spec(), golden=golden_design, store=store)
    warm_data = warm.fault_sweep_data(cell)
    assert np.array_equal(cold_data.correct, warm_data.correct)
    assert np.array_equal(cold_data.golden_faulted, warm_data.golden_faulted)
    assert np.array_equal(cold_data.infected_faulted["HT1"],
                          warm_data.infected_faulted["HT1"])
    assert cold_data.grid == warm_data.grid


def test_attack_shards_cover_the_grid(golden_design):
    spec = _fault_spec(die_counts=(2, 3))
    assert spec.num_cells() == 2
    indices = []
    for shard in range(2):
        result = CampaignEngine(spec, golden=golden_design).run(
            shard=(shard, 2))
        indices.extend(cell.index for cell in result.cells)
    assert sorted(indices) == [0, 1]


def test_recover_from_engine_sweep(fault_campaign):
    spec, engine, _result = fault_campaign
    cell = next(c for c in spec.grid() if c.is_fault)
    data = engine.fault_sweep_data(cell)
    dfa = recover_from_sweep(data.correct, data.golden_faulted)
    expected = last_round_key(spec.key)
    assert dfa.num_faults > 0
    assert dfa.matches(expected)


# -- CLI -----------------------------------------------------------------------


def test_cli_parser_attack_flags():
    parser = build_parser()
    args = parser.parse_args([
        "attack", "sweep", "--store", "/tmp/s", "--dies", "3",
        "--plaintexts", "4", "--offset", "2000", "--width", "1500",
        "--period", "6000", "--shard", "0/2",
    ])
    assert args.store == "/tmp/s"
    assert args.offset == [2000.0] and args.period == [6000.0]
    assert args.shard == (0, 2)
    args = parser.parse_args(["attack", "recover", "--min-evidence", "12"])
    assert args.min_evidence == 12


def test_cli_attack_sweep_then_recover(tmp_path, capsys):
    """The acceptance demo: a stored glitch sweep, then DFA key recovery."""
    store = str(tmp_path / "store")
    assert main(["attack", "sweep", "--store", store]) == 0
    sweep_out = capsys.readouterr().out
    assert "fault_coverage" in sweep_out
    assert main(["attack", "recover", "--store", store]) == 0
    recover_out = capsys.readouterr().out
    assert "all recovered bytes match: True" in recover_out
    assert "(correct)" in recover_out
    assert "(WRONG)" not in recover_out


def test_cold_recover_releases_its_store_writer_lease(tmp_path, capsys):
    """A recover on an empty store computes and stores the sweep; the
    writer lease that write registered ends with the command."""
    from repro.store import list_leases

    store = tmp_path / "store"
    argv = ["attack", "recover", "--dies", "3", "--plaintexts", "4",
            "--store", str(store)]
    assert main(argv) == 0
    assert "all recovered bytes match: True" in capsys.readouterr().out
    assert list((store / "objects").iterdir())
    assert list_leases(store / "leases") == []
