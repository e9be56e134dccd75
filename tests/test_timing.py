"""Unit tests for the timing engine."""

import pytest

from repro.netlist.cells import make_dff, make_lut, make_xor
from repro.netlist.netlist import Netlist
from repro.netlist.timing import DEFAULT_NET_DELAY_PS, DelayAnnotation

from oracles import TimingEngine


def build_chain() -> Netlist:
    """a -> xor1 -> xor2 -> DFF, with b as the other xor input."""
    netlist = Netlist("chain")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_cell(make_xor("x1", "a", "b", "n1"))
    netlist.add_cell(make_xor("x2", "n1", "b", "n2"))
    netlist.add_cell(make_dff("reg", "n2", "q"))
    netlist.add_output("q")
    return netlist


def test_annotation_defaults_and_offsets():
    annotation = DelayAnnotation()
    cell = make_xor("x", "a", "b", "y")
    base = annotation.cell_delay_ps(cell)
    assert base > 0
    annotation.add_cell_offset("x", 10.0)
    assert annotation.cell_delay_ps(cell) == pytest.approx(base + 10.0)
    annotation.add_net_delay("a", 5.0)
    assert annotation.net_delay_ps("a") == pytest.approx(DEFAULT_NET_DELAY_PS + 5.0)
    assert annotation.net_delay_ps("unknown") == DEFAULT_NET_DELAY_PS


def test_annotation_scale_and_clamping():
    cell = make_xor("x", "a", "b", "y")
    annotation = DelayAnnotation(cell_scale=2.0)
    assert annotation.cell_delay_ps(cell) == pytest.approx(
        2.0 * cell.intrinsic_delay_ps()
    )
    negative = DelayAnnotation(cell_offsets_ps={"x": -10000.0})
    assert negative.cell_delay_ps(cell) == 0.0


def test_annotation_copy_is_independent():
    annotation = DelayAnnotation()
    clone = annotation.copy()
    clone.add_cell_offset("x", 5.0)
    assert "x" not in annotation.cell_offsets_ps


def test_static_arrival_times_accumulate_along_path():
    netlist = build_chain()
    annotation = DelayAnnotation(net_delays_ps={}, default_net_delay_ps=10.0)
    engine = TimingEngine(netlist, annotation)
    arrivals = engine.static_arrival_times()
    gate = annotation.cell_delay_ps(netlist.cells["x1"])
    assert arrivals["n1"] == pytest.approx(10.0 + gate)
    assert arrivals["n2"] == pytest.approx(arrivals["n1"] + 10.0 + gate)


def test_critical_path_targets_register_inputs():
    netlist = build_chain()
    engine = TimingEngine(netlist, DelayAnnotation(default_net_delay_ps=10.0))
    critical = engine.critical_path_ps()
    arrivals = engine.static_arrival_times()
    assert critical == pytest.approx(arrivals["n2"] + 10.0)


def test_two_vector_no_input_change_means_no_transition():
    netlist = build_chain()
    engine = TimingEngine(netlist, DelayAnnotation())
    result = engine.two_vector_arrival_times({"a": 0, "b": 0}, {"a": 0, "b": 0})
    assert result.transition_time("n1") is None
    assert result.transition_time("n2") is None
    assert result.toggling_nets() == []


def test_two_vector_transition_propagates_with_delay():
    netlist = build_chain()
    annotation = DelayAnnotation(default_net_delay_ps=10.0)
    engine = TimingEngine(netlist, annotation)
    result = engine.two_vector_arrival_times({"a": 0, "b": 0}, {"a": 1, "b": 0})
    gate = annotation.cell_delay_ps(netlist.cells["x1"])
    assert result.toggled("n1")
    assert result.transition_time("n1") == pytest.approx(10.0 + gate)
    assert result.transition_time("n2") == pytest.approx(
        result.transition_time("n1") + 10.0 + gate
    )
    endpoint = engine.endpoint_delays(result, ["n2"])
    assert endpoint["n2"] == pytest.approx(result.transition_time("n2") + 10.0)


def test_two_vector_masked_transition_does_not_propagate():
    """If the output value is unchanged, downstream sees no transition."""
    netlist = Netlist("masking")
    netlist.add_input("a")
    netlist.add_input("b")
    # AND gate: toggling a while b=0 leaves the output stable at 0.
    netlist.add_cell(make_lut("and1", ["a", "b"], "n1", (0, 0, 0, 1)))
    netlist.add_cell(make_xor("x1", "n1", "b", "n2"))
    netlist.add_output("n2")
    engine = TimingEngine(netlist, DelayAnnotation())
    result = engine.two_vector_arrival_times({"a": 0, "b": 0}, {"a": 1, "b": 0})
    assert result.transition_time("n1") is None
    assert result.transition_time("n2") is None


def test_two_vector_is_data_dependent():
    netlist = Netlist("two_stage")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_input("c")
    netlist.add_cell(make_xor("x1", "a", "b", "n1"))
    netlist.add_cell(make_xor("x2", "n1", "c", "n2"))
    netlist.add_output("n2")
    engine = TimingEngine(netlist, DelayAnnotation())
    base = {"a": 0, "b": 0, "c": 0}
    flip_a = engine.two_vector_arrival_times(base, {"a": 1, "b": 0, "c": 0})
    flip_c = engine.two_vector_arrival_times(base, {"a": 0, "b": 0, "c": 1})
    # Flipping c reaches x2 directly, so n2's transition happens earlier
    # than when the transition has to cross x1 first.
    assert flip_c.transition_time("n2") < flip_a.transition_time("n2")


def test_input_arrival_offset_shifts_everything():
    netlist = build_chain()
    base = TimingEngine(netlist, DelayAnnotation()).static_arrival_times()
    shifted = TimingEngine(netlist, DelayAnnotation(),
                           input_arrival_ps=100.0).static_arrival_times()
    assert shifted["n2"] == pytest.approx(base["n2"] + 100.0)


def test_endpoint_delays_report_stable_endpoints_as_none():
    netlist = build_chain()
    engine = TimingEngine(netlist, DelayAnnotation())
    result = engine.two_vector_arrival_times({"a": 0, "b": 0}, {"a": 0, "b": 0})
    assert engine.endpoint_delays(result, ["n2"])["n2"] is None
