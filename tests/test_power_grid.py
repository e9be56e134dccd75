"""Unit tests for the power-distribution-network coupling model."""

import dataclasses

import numpy as np
import pytest

from repro.fpga.device import virtex5_lx30
from repro.fpga.power_grid import PowerGrid, _victim_droop_offsets


@pytest.fixture()
def grid():
    return PowerGrid(virtex5_lx30())


def test_tile_partitioning(grid):
    assert grid.tile_of((0, 0)) == (0, 0)
    assert grid.tile_of((9, 9)) == (0, 0)
    assert grid.tile_of((10, 0)) == (1, 0)
    rows, cols = grid.tile_grid_shape()
    assert rows == 8 and cols == 6
    with pytest.raises(ValueError):
        grid.tile_of((1000, 0))


def test_tile_dimensions_validated():
    with pytest.raises(ValueError):
        PowerGrid(virtex5_lx30(), tile_rows=0)


def test_droop_zero_without_aggressors(grid):
    assert grid.droop_mv({}) == {}
    offsets = grid.victim_delay_offsets_ps({"victim": (0, 0)}, {})
    assert offsets.tolist() == [0.0]


def test_droop_decays_with_distance(grid):
    aggressors = {f"t{k}": (5, 5) for k in range(20)}
    droop = grid.droop_mv(aggressors)
    near = droop[(0, 0)]
    far = droop[(7, 5)]
    assert near > far > 0


def test_droop_scales_with_aggressor_count(grid):
    few = grid.droop_mv({f"t{k}": (5, 5) for k in range(5)})[(0, 0)]
    many = grid.droop_mv({f"t{k}": (5, 5) for k in range(50)})[(0, 0)]
    assert many == pytest.approx(10 * few, rel=1e-6)


def test_victim_offsets_follow_droop(grid):
    aggressors = {f"t{k}": (5, 5) for k in range(30)}
    victims = {"near": (0, 0), "far": (79, 59)}
    near, far = grid.victim_delay_offsets_ps(victims, aggressors)
    assert near > far >= 0.0


def test_victim_offsets_magnitude_is_measurable(grid):
    """A trojan-sized aggressor group shifts nearby cells by >= a few ps."""
    aggressors = {f"t{k}": (2, 2) for k in range(60)}
    offsets = grid.victim_delay_offsets_ps({"victim": (1, 1)}, aggressors)
    assert offsets[0] > 1.0


_VICTIMS = {f"v{k}": ((7 * k) % 80, (11 * k) % 60) for k in range(40)}
_AGGRESSORS = {f"t{k}": (20 + k % 5, 30 + k // 5) for k in range(25)}


def _unmemoised_offsets(grid, victims, aggressors):
    droop = grid.droop_mv(aggressors)
    return {name: droop.get(grid.tile_of(coord), 0.0)
            * grid.delay_sensitivity_ps_per_mv
            for name, coord in victims.items()}


def test_droop_memo_hit_equals_the_unmemoised_path(grid):
    _victim_droop_offsets.cache_clear()
    expected = _unmemoised_offsets(grid, _VICTIMS, _AGGRESSORS)
    first = grid.victim_delay_offsets_ps(_VICTIMS, _AGGRESSORS)
    second = PowerGrid(virtex5_lx30()).victim_delay_offsets_ps(
        dict(_VICTIMS), dict(_AGGRESSORS))
    info = _victim_droop_offsets.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for offsets in (first, second):
        assert offsets.tobytes() == \
            np.array(list(expected.values())).tobytes()


def _moved(positions, name, rows=10):
    row, col = positions[name]
    return dict(positions, **{name: ((row + rows) % 80, col)})


@pytest.mark.parametrize("change", [
    {"tile_rows": 8},
    {"tile_cols": 12},
    {"tile_resistance_ohm": 2.5},
    {"static_current_per_cell_ua": 150.0},
    {"delay_sensitivity_ps_per_mv": 2.5},
    {"droop_decay_tiles": 2.0},
    {"device": {"name": "other"}},
    {"device": {"rows": 100}},
    {"device": {"columns": 70}},
    "move_one_victim",
    "move_one_aggressor",
])
def test_droop_memo_key_covers_every_input(change):
    _victim_droop_offsets.cache_clear()
    victims, aggressors = _VICTIMS, _AGGRESSORS
    grid = PowerGrid(virtex5_lx30())
    base = grid.victim_delay_offsets_ps(victims, aggressors)
    if change == "move_one_victim":
        victims = _moved(victims, "v1", rows=20)
    elif change == "move_one_aggressor":
        aggressors = _moved(aggressors, "t0")
    elif "device" in change:
        grid.device = dataclasses.replace(grid.device, **change["device"])
    else:
        # PowerGrid is mutable: the key is read at call time.
        for name, value in change.items():
            setattr(grid, name, value)
    misses_before = _victim_droop_offsets.cache_info().misses
    changed = grid.victim_delay_offsets_ps(victims, aggressors)
    assert _victim_droop_offsets.cache_info().misses == misses_before + 1
    assert changed.tolist() == \
        list(_unmemoised_offsets(grid, victims, aggressors).values())
    if "device" not in change:
        # A device that still holds every cell tiles them the same way.
        assert not np.array_equal(changed, base)


def test_droop_memo_returns_a_read_only_vector(grid):
    first = grid.victim_delay_offsets_ps(_VICTIMS, _AGGRESSORS)
    expected = first.copy()
    with pytest.raises(ValueError):
        first[0] += 1000.0
    assert np.array_equal(
        grid.victim_delay_offsets_ps(_VICTIMS, _AGGRESSORS), expected)
