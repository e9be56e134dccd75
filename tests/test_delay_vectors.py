"""The delay annotation is two compiled-order vectors, equal to the dict form.

``build_delay_annotation`` builds a die's cell and net delay vectors
directly in the compiled netlist's order.  These tests pin them, bit
for bit, to the name-keyed oracle annotation (``dict_delay_annotation``
in ``tests/oracles/timing.py``: per-cell intra-die offsets, unmemoised
droop, tap loading merged name by name) lowered by its per-name
``cell_delay_vector`` / ``net_delay_vector``, on the golden design and
on every library trojan, for a varied die, a die without intra-die
variation and a nominal die.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fpga.annotation import build_delay_annotation
from repro.fpga.power_grid import PowerGrid
from repro.measurement.dut import DeviceUnderTest
from repro.netlist.compiled import DEFAULT_NET_DELAY_PS, CompiledTimingEngine
from repro.trojan.insertion import insert_trojan
from repro.trojan.library import TROJAN_SPECS, build_trojan

from oracles import delay_vectors, dict_delay_annotation


@pytest.fixture(scope="module")
def infected_designs(golden_design, device):
    return {name: insert_trojan(golden_design, build_trojan(name, device))
            for name in TROJAN_SPECS}


def _bits(vector: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(vector, dtype=np.float64).view(np.uint64)


def _annotation_kwargs(golden_design, infected, die, with_intra_die):
    """Keyword arguments of one (design, die) annotation, as a DUT
    builds them."""
    kwargs = {"die": die}
    if with_intra_die:
        kwargs["intra_die"] = DeviceUnderTest(golden_design,
                                              die).intra_die_variation()
    if infected is not None:
        kwargs.update(extra_net_delays_ps=infected.tap_extra_delay_ps,
                      aggressor_positions=infected.aggressor_positions(),
                      power_grid=PowerGrid(golden_design.device))
    return kwargs


@pytest.mark.parametrize("design_name", ["golden"] + list(TROJAN_SPECS))
@pytest.mark.parametrize("die_case", ["varied", "no_intra_die", "nominal"])
def test_vectors_equal_the_lowered_dict_annotation(golden_design,
                                                   infected_designs,
                                                   die_population,
                                                   design_name, die_case):
    infected = infected_designs.get(design_name)
    die = None if die_case == "nominal" else die_population[1]
    kwargs = _annotation_kwargs(golden_design, infected, die,
                                with_intra_die=die_case == "varied")
    vectors = build_delay_annotation(golden_design, **kwargs)
    oracle = delay_vectors(dict_delay_annotation(golden_design, **kwargs),
                           golden_design.netlist)
    assert np.array_equal(_bits(vectors.cell_delays_ps),
                          _bits(oracle.cell_delays_ps))
    assert np.array_equal(_bits(vectors.net_delays_ps),
                          _bits(oracle.net_delays_ps))
    assert not vectors.cell_delays_ps.flags.writeable
    assert not vectors.net_delays_ps.flags.writeable


def test_dut_annotation_equals_the_lowered_oracle(golden_design,
                                                  infected_designs,
                                                  die_population):
    """A DUT annotates its die with intra-die variation and, infected,
    with its trojan's taps and droop: the varied-die case above."""
    infected = infected_designs["HT_seq"]
    die = die_population[2]
    vectors = DeviceUnderTest(infected, die).delay_annotation()
    oracle = delay_vectors(
        dict_delay_annotation(golden_design, **_annotation_kwargs(
            golden_design, infected, die, with_intra_die=True)),
        golden_design.netlist)
    assert np.array_equal(_bits(vectors.cell_delays_ps),
                          _bits(oracle.cell_delays_ps))
    assert np.array_equal(_bits(vectors.net_delays_ps),
                          _bits(oracle.net_delays_ps))


def test_tapped_net_without_routed_delay_starts_from_zero(golden_design):
    """A tap on a net the router left without a delay loads ``0.0``, not
    the default routing delay; an untapped unrouted net keeps the
    default."""
    compiled = golden_design.netlist.compiled()
    tapped, untapped = compiled.net_names[5], compiled.net_names[6]
    routed = dict(golden_design.net_delays_ps)
    del routed[tapped], routed[untapped]
    design = dataclasses.replace(golden_design, net_delays_ps=routed)
    extras = {tapped: 17.25, compiled.net_names[7]: 3.5,
              "not_a_host_net": 9.0}
    vectors = build_delay_annotation(design, extra_net_delays_ps=extras)
    oracle = delay_vectors(
        dict_delay_annotation(design, extra_net_delays_ps=extras),
        golden_design.netlist)
    assert np.array_equal(_bits(vectors.net_delays_ps),
                          _bits(oracle.net_delays_ps))
    assert vectors.net_delays_ps[compiled.net_index[tapped]] == 0.0 + 17.25
    assert vectors.net_delays_ps[compiled.net_index[untapped]] == \
        DEFAULT_NET_DELAY_PS


def test_timing_engine_stacks_the_vectors_as_they_are(golden_design,
                                                      infected_designs,
                                                      die_population):
    duts = [DeviceUnderTest(golden_design, die_population[0]),
            DeviceUnderTest(infected_designs["HT1"], die_population[3]),
            DeviceUnderTest(golden_design)]
    annotations = [dut.delay_annotation() for dut in duts]
    engine = CompiledTimingEngine(golden_design.netlist, annotations)
    assert engine.num_dies == len(duts)
    for die, annotation in enumerate(annotations):
        assert np.array_equal(_bits(engine.cell_delays[die]),
                              _bits(annotation.cell_delays_ps))
        assert np.array_equal(_bits(engine.net_delays[die, :-1]),
                              _bits(annotation.net_delays_ps))
    assert not engine.net_delays[:, -1].any()


def test_timing_engine_rejects_vectors_of_another_netlist(golden_design,
                                                          infected_designs):
    trojan_netlist = infected_designs["HT1"].trojan.netlist
    with pytest.raises(ValueError, match="do not fit"):
        CompiledTimingEngine(trojan_netlist,
                             DeviceUnderTest(golden_design).delay_annotation())
