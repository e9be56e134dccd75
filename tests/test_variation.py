"""Tests for the process-variation models."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import cell_offset_ps
from repro.fpga.power_grid import _victim_droop_offsets
from repro.variation.inter_die import DiePopulation, DieProfile
from repro.campaigns import CampaignEngine, CampaignSpec
from repro.variation.intra_die import (
    IntraDieVariation,
    _pcg64_states,
    die_offsets,
)


def test_intra_die_variation_is_deterministic():
    a = IntraDieVariation(seed=42)
    b = IntraDieVariation(seed=42)
    positions = {"cell_x": (3, 4)}
    first = a.offsets_for(positions)
    die_offsets.cache_clear()
    assert np.array_equal(b.offsets_for(positions), first)


def test_intra_die_variation_differs_across_dies():
    a = IntraDieVariation(seed=1)
    b = IntraDieVariation(seed=2)
    positions = {f"c{k}": (k, k) for k in range(20)}
    assert not np.array_equal(a.offsets_for(positions),
                              b.offsets_for(positions))


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
    assert offsets.shape == (len(positions),)
    assert offsets.dtype == np.float64


def _positions(count=40):
    return {f"c{k}": (k % 80, (7 * k) % 60) for k in range(count)}


@pytest.mark.parametrize("seed", [0, 3, 2015, 987654321])
def test_offsets_for_memo_matches_per_cell_oracle(seed):
    die_offsets.cache_clear()
    variation = IntraDieVariation(seed=seed)
    positions = _positions()
    oracle = {name: cell_offset_ps(variation, name, coord)
              for name, coord in positions.items()}
    first = variation.offsets_for(positions)
    hits_before = die_offsets.cache_info().hits
    second = IntraDieVariation(seed=seed).offsets_for(positions)
    assert die_offsets.cache_info().hits == hits_before + 1
    for offsets in (first, second):
        assert offsets.tobytes() == np.array(list(oracle.values())).tobytes()


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
    assert not np.array_equal(changed, base)
    assert changed.tolist() == [cell_offset_ps(variation, name, coord)
                                for name, coord in positions.items()]


def test_offsets_for_returns_a_read_only_vector():
    variation = IntraDieVariation(seed=8)
    positions = _positions()
    first = variation.offsets_for(positions)
    expected = first.copy()
    with pytest.raises(ValueError):
        first[0] += 1000.0
    assert np.array_equal(variation.offsets_for(positions), expected)


_UINT32 = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(_UINT32, min_size=1, max_size=8))
@example([0])
@example([2 ** 32 - 1])
@example([0, 1, 2 ** 32 - 1])
def test_bulk_seeding_equals_default_rng(seeds):
    """Each bulk PCG64 state is the one ``default_rng(seed)`` starts
    from, and the draws from it are bit-equal."""
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for seed, (state, inc) in zip(seeds, _pcg64_states(seeds), strict=True):
        reference = np.random.default_rng(seed)
        assert reference.bit_generator.state["state"] == {"state": state,
                                                          "inc": inc}
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        ours = [generator.normal(0.0, 1.0) for _ in range(3)]
        theirs = [reference.normal(0.0, 1.0) for _ in range(3)]
        assert np.array(ours).tobytes() == np.array(theirs).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2015, 2 ** 31 + 7])
def test_die_offsets_pin_the_per_cell_oracle_on_the_golden_placement(
        golden_design, seed):
    """The annotation's offset vector covers the golden placement's
    combinational cells in compiled order, each equal to the per-cell
    oracle."""
    placement = golden_design.placement.cell_positions
    positions = {name: placement[name] for name
                 in golden_design.netlist.compiled().comb_cell_names}
    assert len(positions) == 1024
    assert list(golden_design.host_delays.comb_positions.items()) == \
        list(positions.items())
    variation = IntraDieVariation(seed=seed)
    die_offsets.cache_clear()
    offsets = variation.offsets_for(positions)
    assert offsets.shape == (1024,)
    for index, (name, coord) in enumerate(positions.items()):
        expected = cell_offset_ps(variation, name, coord)
        assert offsets[index:index + 1].tobytes() == \
            np.float64(expected).tobytes(), name


def test_campaign_computes_each_die_offset_once(golden_design):
    """A delay cell and a fault cell over 8 dies and three trojans
    annotate 64 devices, but each die's offsets are computed once and
    each trojan's droop once."""
    spec = CampaignSpec(
        name="offset-memo", trojans=("HT1", "HT2", "HT3"), die_counts=(8,),
        metrics=("delay_max_difference", "fault_coverage"), seed=11,
        num_pk_pairs=2, delay_repetitions=1, workers=1,
    )
    die_offsets.cache_clear()
    _victim_droop_offsets.cache_clear()
    engine = CampaignEngine(spec, golden=golden_design)
    result = engine.run()
    assert [cell.status for cell in result.cells] == ["ok", "ok"]
    population = engine.platform.population
    distinct_dies = {die.intra_die_seed for die in population}
    assert len(distinct_dies) == 8
    offsets = die_offsets.cache_info()
    assert offsets.misses == len(distinct_dies)
    assert offsets.hits > 0
    droop = _victim_droop_offsets.cache_info()
    assert droop.misses == len(spec.trojans)
    assert droop.hits > 0


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


def test_die_population_reproducible_and_prefix_stable():
    small = DiePopulation(size=4, seed=11)
    large = DiePopulation(size=8, seed=11)
    assert len(small) == 4
    for index in range(4):
        assert small[index] == large[index]
    assert [d.die_id for d in small] == [0, 1, 2, 3]


def test_die_population_spread_parameters():
    population = DiePopulation(size=50, seed=1, sigma_delay_scale=0.05)
    scales = np.array([die.delay_scale for die in population])
    assert 0.9 < scales.mean() < 1.1
    assert scales.std() > 0.01
    assert len([die.em_gain for die in population]) == 50


def test_die_population_validation():
    with pytest.raises(ValueError):
        DiePopulation(size=0)
    with pytest.raises(ValueError):
        DiePopulation(size=2, sigma_em_gain=-0.1)
