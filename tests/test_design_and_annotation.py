"""Tests for the golden design and the delay-annotation builder."""

import pytest

from repro.fpga.annotation import build_delay_annotation
from repro.fpga.design import GoldenDesign, build_golden_design_cached
from repro.fpga.device import virtex5_lx30
from repro.fpga.power_grid import PowerGrid
from repro.variation.inter_die import DiePopulation
from repro.variation.intra_die import IntraDieVariation

from oracles import TimingEngine


def test_golden_design_build_is_deterministic(golden_design):
    other = GoldenDesign.build(device=golden_design.device)
    assert other.placement.cell_positions == golden_design.placement.cell_positions
    assert other.net_delays_ps == golden_design.net_delays_ps


def test_golden_design_area_accounting(golden_design):
    assert golden_design.aes_total_slices() == 1836
    assert 0 < golden_design.modelled_slice_count() < golden_design.aes_total_slices()
    assert golden_design.area_fraction_of_aes(18.36) == pytest.approx(0.01)


def test_golden_design_net_delays_cover_all_nets(golden_design):
    assert set(golden_design.net_delays_ps) == golden_design.netlist.nets()
    assert all(delay > 0 for delay in golden_design.net_delays_ps.values())


def test_golden_design_placement_within_aes_region(golden_design):
    region = golden_design.floorplan.aes_region
    for coord in golden_design.placement.cell_positions.values():
        assert region.contains(*coord)


def test_build_golden_design_cached_reuses_instance():
    first = build_golden_design_cached(virtex5_lx30())
    second = build_golden_design_cached(virtex5_lx30())
    assert first is second


def test_annotation_without_variation_uses_routed_delays(golden_design):
    annotation = build_delay_annotation(golden_design)
    assert annotation.cell_scale == 1.0
    assert annotation.cell_offsets_ps == {}
    some_net = next(iter(golden_design.net_delays_ps))
    assert annotation.net_delay_ps(some_net) == pytest.approx(
        golden_design.net_delays_ps[some_net]
    )


def test_annotation_applies_die_scale_and_intra_die_offsets(golden_design):
    population = DiePopulation(size=2, seed=5)
    die = population[0]
    intra = IntraDieVariation(seed=die.intra_die_seed)
    annotation = build_delay_annotation(golden_design, die=die, intra_die=intra)
    assert annotation.cell_scale == pytest.approx(die.delay_scale)
    assert len(annotation.cell_offsets_ps) == len(
        golden_design.placement.cell_positions
    )


def test_annotation_adds_tap_delays_and_droop(golden_design, infected_design):
    grid = PowerGrid(golden_design.device)
    annotation = build_delay_annotation(
        golden_design,
        extra_net_delays_ps=infected_design.tap_extra_delay_ps,
        aggressor_positions=infected_design.aggressor_positions(),
        power_grid=grid,
    )
    tapped_net = next(iter(infected_design.tap_extra_delay_ps))
    assert annotation.net_delay_ps(tapped_net) > golden_design.net_delays_ps[tapped_net]
    assert any(offset > 0 for offset in annotation.cell_offsets_ps.values())


def test_annotation_changes_critical_path(golden_design, infected_design):
    grid = PowerGrid(golden_design.device)
    clean = build_delay_annotation(golden_design)
    infected = build_delay_annotation(
        golden_design,
        extra_net_delays_ps=infected_design.tap_extra_delay_ps,
        aggressor_positions=infected_design.aggressor_positions(),
        power_grid=grid,
    )
    clean_cp = TimingEngine(golden_design.netlist, clean).critical_path_ps()
    infected_cp = TimingEngine(golden_design.netlist, infected).critical_path_ps()
    assert infected_cp > clean_cp
