"""Tests for the device-under-test abstraction."""

import numpy as np
import pytest
from oracles import delay_vectors, dict_delay_annotation

from repro.measurement.dut import DeviceUnderTest


def test_golden_dut_properties(golden_design, die_population):
    dut = DeviceUnderTest(golden_design, die_population[0])
    assert not dut.is_infected
    assert dut.trojan is None
    assert dut.infected is None
    assert dut.golden is golden_design
    assert dut.netlist is golden_design.netlist
    assert dut.label == "golden_die0"
    assert dut.em_gain() == pytest.approx(die_population[0].em_gain)
    assert dut.em_offset() == pytest.approx(die_population[0].em_offset)


def test_infected_dut_properties(infected_design, die_population):
    dut = DeviceUnderTest(infected_design, die_population[1], label="suspect")
    assert dut.is_infected
    assert dut.trojan is infected_design.trojan
    assert dut.infected is infected_design
    assert dut.golden is infected_design.golden
    assert dut.label == "suspect"


def test_nominal_die_defaults(golden_design):
    dut = DeviceUnderTest(golden_design)
    assert dut.die is None
    assert dut.em_gain() == 1.0
    assert dut.em_offset() == 0.0
    assert dut.intra_die_variation() is None
    annotation = dut.delay_annotation()
    expected = delay_vectors(dict_delay_annotation(golden_design),
                             golden_design.netlist)
    assert np.array_equal(annotation.cell_delays_ps, expected.cell_delays_ps)
    assert np.array_equal(annotation.net_delays_ps, expected.net_delays_ps)


def test_annotation_cached_per_dut(golden_design, die_population):
    dut = DeviceUnderTest(golden_design, die_population[0])
    assert dut.delay_annotation() is dut.delay_annotation()


def test_infected_annotation_includes_taps(infected_design, die_population):
    dut = DeviceUnderTest(infected_design, die_population[0])
    annotation = dut.delay_annotation()
    tapped = next(iter(infected_design.tap_extra_delay_ps))
    golden_delay = infected_design.golden.net_delays_ps[tapped]
    column = infected_design.golden.netlist.compiled().net_index[tapped]
    assert annotation.net_delays_ps[column] > golden_delay


def test_same_die_same_design_same_annotation(golden_design, die_population):
    a = DeviceUnderTest(golden_design, die_population[2])
    b = DeviceUnderTest(golden_design, die_population[2])
    ann_a = a.delay_annotation()
    ann_b = b.delay_annotation()
    assert np.array_equal(ann_a.cell_delays_ps, ann_b.cell_delays_ps)
    assert np.array_equal(ann_a.net_delays_ps, ann_b.net_delays_ps)


def test_a_die_always_applies_its_intra_die_offsets(golden_design,
                                                    die_population):
    dut = DeviceUnderTest(golden_design, die_population[0])
    assert dut.intra_die_variation() is not None
    die = die_population[0]
    # The die's scale alone, without its intra-die offsets.
    scaled = delay_vectors(dict_delay_annotation(golden_design, die=die),
                           golden_design.netlist)
    assert not np.array_equal(dut.delay_annotation().cell_delays_ps,
                              scaled.cell_delays_ps)
    nominal = delay_vectors(dict_delay_annotation(golden_design),
                            golden_design.netlist)
    assert np.array_equal(
        DeviceUnderTest(golden_design).delay_annotation().cell_delays_ps,
        nominal.cell_delays_ps)


def test_annotation_cache_is_keyed_by_design_and_die(golden_design,
                                                     infected_design,
                                                     die_population):
    cache = {}
    first = DeviceUnderTest(golden_design, die_population[0],
                            annotation_cache=cache)
    again = DeviceUnderTest(golden_design, die_population[0], label="again",
                            annotation_cache=cache)
    other_die = DeviceUnderTest(golden_design, die_population[1],
                                annotation_cache=cache)
    infected = DeviceUnderTest(infected_design, die_population[0],
                               annotation_cache=cache)
    assert again.delay_annotation() is first.delay_annotation()
    assert other_die.delay_annotation() is not first.delay_annotation()
    assert infected.delay_annotation() is not first.delay_annotation()
    assert set(cache) == {(id(golden_design), die_population[0]),
                          (id(golden_design), die_population[1]),
                          (id(infected_design), die_population[0])}
