"""Tests for the golden design and the delay-annotation builder."""

import numpy as np
import pytest

from repro.fpga.annotation import build_delay_annotation
from repro.fpga.design import GoldenDesign
from repro.fpga.power_grid import PowerGrid
from repro.variation.inter_die import DiePopulation
from repro.variation.intra_die import IntraDieVariation

from oracles import TimingEngine, delay_vectors, dict_delay_annotation


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
    region = set(golden_design.floorplan.aes_region.iter_slices())
    for coord in golden_design.placement.cell_positions.values():
        assert coord in region


def test_annotation_without_variation_uses_routed_delays(golden_design):
    annotation = build_delay_annotation(golden_design)
    compiled = golden_design.netlist.compiled()
    cells = golden_design.netlist.cells
    intrinsic = [cells[name].intrinsic_delay_ps()
                 for name in compiled.comb_cell_names]
    assert annotation.cell_delays_ps.tolist() == intrinsic
    some_net = next(iter(golden_design.net_delays_ps))
    assert annotation.net_delays_ps[compiled.net_index[some_net]] == \
        pytest.approx(golden_design.net_delays_ps[some_net])


def test_annotation_applies_die_scale_and_intra_die_offsets(golden_design):
    population = DiePopulation(size=2, seed=5)
    die = population[0]
    intra = IntraDieVariation(seed=die.intra_die_seed)
    annotation = build_delay_annotation(golden_design, die=die, intra_die=intra)
    netlist = golden_design.netlist
    assert annotation.cell_delays_ps.shape == \
        (len(netlist.compiled().comb_cell_names),)
    oracle = delay_vectors(
        dict_delay_annotation(golden_design, die=die, intra_die=intra),
        netlist)
    assert np.array_equal(annotation.cell_delays_ps, oracle.cell_delays_ps)
    scaled_only = delay_vectors(dict_delay_annotation(golden_design, die=die),
                                netlist)
    assert not np.array_equal(annotation.cell_delays_ps,
                              scaled_only.cell_delays_ps)


def test_annotation_adds_tap_delays_and_droop(golden_design, infected_design):
    grid = PowerGrid(golden_design.device)
    annotation = build_delay_annotation(
        golden_design,
        extra_net_delays_ps=infected_design.tap_extra_delay_ps,
        aggressor_positions=infected_design.aggressor_positions(),
        power_grid=grid,
    )
    tapped_net = next(iter(infected_design.tap_extra_delay_ps))
    column = golden_design.netlist.compiled().net_index[tapped_net]
    assert annotation.net_delays_ps[column] > \
        golden_design.net_delays_ps[tapped_net]
    clean = build_delay_annotation(golden_design)
    assert (annotation.cell_delays_ps > clean.cell_delays_ps).any()


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
