"""Tests for the process-variation models."""

import numpy as np
import pytest

from repro.variation.bowman import (
    BowmanParameters,
    die_to_die_dominance,
    fmax_statistics,
    sample_die_critical_delays,
)
from repro.variation.inter_die import DiePopulation, DieProfile
from repro.campaigns import CampaignEngine, CampaignSpec
from repro.variation.intra_die import IntraDieVariation, die_offsets


def test_intra_die_variation_is_deterministic():
    a = IntraDieVariation(seed=42)
    b = IntraDieVariation(seed=42)
    assert a.cell_offset_ps("cell_x", (3, 4)) == b.cell_offset_ps("cell_x", (3, 4))


def test_intra_die_variation_differs_across_dies():
    a = IntraDieVariation(seed=1)
    b = IntraDieVariation(seed=2)
    offsets_a = [a.cell_offset_ps(f"c{k}", (k, k)) for k in range(20)]
    offsets_b = [b.cell_offset_ps(f"c{k}", (k, k)) for k in range(20)]
    assert offsets_a != offsets_b


def test_intra_die_spatial_correlation():
    """Neighbouring cells see similar spatial components."""
    variation = IntraDieVariation(seed=7, sigma_random_ps=0.0)
    near = abs(variation.spatial_field((10, 10)) - variation.spatial_field((11, 10)))
    far = abs(variation.spatial_field((10, 10)) - variation.spatial_field((70, 55)))
    # Not guaranteed pointwise, but with zero random part the field is smooth;
    # neighbouring slices must be much closer than a 1-sigma swing.
    assert near < 0.5


def test_intra_die_offsets_for_positions():
    variation = IntraDieVariation(seed=3)
    positions = {f"c{k}": (k, 2 * k) for k in range(10)}
    offsets = variation.offsets_for(positions)
    assert set(offsets) == set(positions)
    assert variation.total_sigma_ps() == pytest.approx(
        np.hypot(variation.sigma_spatial_ps, variation.sigma_random_ps)
    )


def _positions(count=40):
    return {f"c{k}": (k % 80, (7 * k) % 60) for k in range(count)}


@pytest.mark.parametrize("seed", [0, 3, 2015, 987654321])
def test_offsets_for_memo_matches_per_cell_oracle(seed):
    die_offsets.cache_clear()
    variation = IntraDieVariation(seed=seed)
    positions = _positions()
    oracle = {name: variation.cell_offset_ps(name, coord)
              for name, coord in positions.items()}
    first = variation.offsets_for(positions)
    hits_before = die_offsets.cache_info().hits
    second = IntraDieVariation(seed=seed).offsets_for(positions)
    assert die_offsets.cache_info().hits == hits_before + 1
    for offsets in (first, second):
        assert list(offsets) == list(oracle)
        assert all(offsets[name] == oracle[name] for name in oracle)


@pytest.mark.parametrize("change", [
    {"sigma_spatial_ps": 7.0},
    {"sigma_random_ps": 5.0},
    {"die_rows": 81},
    {"die_cols": 61},
    "move_one_cell",
])
def test_offsets_for_memo_key_covers_every_input(change):
    die_offsets.cache_clear()
    positions = _positions()
    base = IntraDieVariation(seed=5).offsets_for(positions)
    if change == "move_one_cell":
        variation = IntraDieVariation(seed=5)
        positions = dict(positions, c3=(positions["c3"][0] + 20,
                                        positions["c3"][1]))
    else:
        variation = IntraDieVariation(seed=5, **change)
    misses_before = die_offsets.cache_info().misses
    changed = variation.offsets_for(positions)
    assert die_offsets.cache_info().misses == misses_before + 1
    assert changed != base
    assert changed == {name: variation.cell_offset_ps(name, coord)
                       for name, coord in positions.items()}


def test_offsets_for_returns_an_independent_dict():
    variation = IntraDieVariation(seed=8)
    positions = _positions()
    first = variation.offsets_for(positions)
    expected = dict(first)
    first["c0"] += 1000.0
    first["intruder"] = 1.0
    assert variation.offsets_for(positions) == expected


def test_campaign_computes_each_die_offset_once(golden_design, monkeypatch):
    """A delay cell and a fault cell over 8 dies and three trojans
    annotate 64 devices, but each die's offsets are computed once."""
    spec = CampaignSpec(
        name="offset-memo", trojans=("HT1", "HT2", "HT3"), die_counts=(8,),
        metrics=("delay_max_difference", "fault_coverage"), seed=11,
        num_pk_pairs=2, delay_repetitions=1, workers=1,
    )
    die_offsets.cache_clear()
    seeds = []
    original = IntraDieVariation.cell_offset_ps

    def counting(self, cell_name, coord):
        seeds.append(self.seed)
        return original(self, cell_name, coord)

    monkeypatch.setattr(IntraDieVariation, "cell_offset_ps", counting)
    engine = CampaignEngine(spec, golden=golden_design)
    result = engine.run()
    assert [cell.status for cell in result.cells] == ["ok", "ok"]
    population = engine.platform_for(spec.grid()[0]).population
    distinct_dies = {die.intra_die_seed for die in population}
    assert len(distinct_dies) == 8
    placed = len(golden_design.placement.cell_positions)
    assert set(seeds) == distinct_dies
    assert len(seeds) == len(distinct_dies) * placed


def test_intra_die_validation():
    with pytest.raises(ValueError):
        IntraDieVariation(seed=0, sigma_spatial_ps=-1)
    with pytest.raises(ValueError):
        IntraDieVariation(seed=0, die_rows=0)


def test_die_profile_validation():
    with pytest.raises(ValueError):
        DieProfile(0, delay_scale=0.0, em_gain=1.0, em_offset=0.0, intra_die_seed=0)
    with pytest.raises(ValueError):
        DieProfile(0, delay_scale=1.0, em_gain=0.0, em_offset=0.0, intra_die_seed=0)
    profile = DieProfile(3, 1.02, 0.98, 1.0, 17)
    assert "die 3" in profile.describe()


def test_die_population_reproducible_and_prefix_stable():
    small = DiePopulation(size=4, seed=11)
    large = DiePopulation(size=8, seed=11)
    assert len(small) == 4
    for index in range(4):
        assert small[index] == large[index]
    assert [d.die_id for d in small] == [0, 1, 2, 3]


def test_die_population_spread_parameters():
    population = DiePopulation(size=50, seed=1, sigma_delay_scale=0.05)
    scales = np.array(population.delay_scales())
    assert 0.9 < scales.mean() < 1.1
    assert scales.std() > 0.01
    assert len(population.em_gains()) == 50


def test_die_population_validation():
    with pytest.raises(ValueError):
        DiePopulation(size=0)
    with pytest.raises(ValueError):
        DiePopulation(size=2, sigma_em_gain=-0.1)


def test_bowman_parameters_validation():
    with pytest.raises(ValueError):
        BowmanParameters(nominal_delay_ps=0, sigma_within_die_ps=1,
                         sigma_die_to_die_ps=1)
    with pytest.raises(ValueError):
        BowmanParameters(nominal_delay_ps=100, sigma_within_die_ps=-1,
                         sigma_die_to_die_ps=1)


def test_bowman_critical_delay_exceeds_nominal():
    params = BowmanParameters(nominal_delay_ps=1000, sigma_within_die_ps=20,
                              sigma_die_to_die_ps=30, num_critical_paths=64)
    delays = sample_die_critical_delays(params, num_dies=200, seed=3)
    assert delays.shape == (200,)
    # Taking a max over many paths biases the critical delay above nominal.
    assert delays.mean() > params.nominal_delay_ps


def test_bowman_statistics_and_dominance():
    params = BowmanParameters(nominal_delay_ps=1000, sigma_within_die_ps=20,
                              sigma_die_to_die_ps=30)
    stats = fmax_statistics(params, num_dies=500, seed=1)
    assert stats["mean_delay_ps"] > 1000
    assert stats["std_delay_ps"] > 0
    assert 0 < stats["mean_fmax_ghz"] < 1.1
    dominance = die_to_die_dominance(params)
    assert 0.5 < dominance < 1.0
    assert die_to_die_dominance(
        BowmanParameters(1000, 0.0, 0.0)
    ) == 0.0


def test_bowman_rejects_bad_die_count():
    params = BowmanParameters(1000, 10, 10)
    with pytest.raises(ValueError):
        sample_die_critical_delays(params, num_dies=0)
