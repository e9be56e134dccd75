"""Unit tests for the netlist container."""

import pytest
from oracles import make_xor, netlist_stats, next_register_values

from repro.netlist.cells import make_dff, make_lut
from repro.netlist.netlist import Netlist, NetlistError


def build_half_adder() -> Netlist:
    netlist = Netlist("half_adder")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_output("sum")
    netlist.add_output("carry")
    netlist.add_cell(make_lut("sum_lut", ["a", "b"], "sum", (0, 1, 1, 0)))
    netlist.add_cell(make_lut("carry_lut", ["a", "b"], "carry", (0, 0, 0, 1)))
    return netlist


def test_half_adder_evaluation():
    netlist = build_half_adder()
    netlist.validate()
    for a in (0, 1):
        for b in (0, 1):
            outputs = netlist.evaluate({"a": a, "b": b})
            assert outputs["sum"] == a ^ b
            assert outputs["carry"] == a & b


def test_duplicate_names_rejected():
    netlist = build_half_adder()
    with pytest.raises(NetlistError):
        netlist.add_input("a")
    with pytest.raises(NetlistError):
        netlist.add_output("sum")
    with pytest.raises(NetlistError):
        netlist.add_cell(make_lut("sum_lut", ["a", "b"], "other", (0, 1, 1, 0)))


def test_multiple_drivers_rejected():
    netlist = build_half_adder()
    with pytest.raises(NetlistError):
        netlist.add_cell(make_lut("dup", ["a", "b"], "sum", (0, 0, 0, 1)))


def test_driving_a_primary_input_rejected():
    netlist = build_half_adder()
    with pytest.raises(NetlistError):
        netlist.add_cell(make_lut("drive_in", ["b", "sum"], "a", (0, 1, 1, 0)))


def test_validate_detects_undriven_nets():
    netlist = Netlist("broken")
    netlist.add_input("a")
    netlist.add_output("y")
    netlist.add_cell(make_xor("x", "a", "missing", "y"))
    with pytest.raises(NetlistError):
        netlist.validate()


def test_validate_detects_undriven_output():
    netlist = Netlist("broken")
    netlist.add_input("a")
    netlist.add_output("y")
    with pytest.raises(NetlistError):
        netlist.validate()


def test_combinational_cycle_detected():
    netlist = Netlist("cycle")
    netlist.add_input("a")
    netlist.add_cell(make_xor("x1", "a", "n2", "n1"))
    netlist.add_cell(make_xor("x2", "n1", "a", "n2"))
    with pytest.raises(NetlistError):
        netlist.topological_order()


def test_registers_break_cycles():
    netlist = Netlist("counter_bit")
    netlist.add_input("enable")
    netlist.add_cell(make_xor("toggle", "q", "enable", "d"))
    netlist.add_cell(make_dff("reg", "d", "q"))
    netlist.add_output("q")
    netlist.validate()
    # Register initialised to 0, enable=1 -> D becomes 1.
    assert next_register_values(netlist, {"enable": 1})["q"] == 1
    # Feeding the captured value back toggles again.
    assert next_register_values(netlist, {"enable": 1}, {"q": 1})["q"] == 0


def test_evaluate_requires_all_primary_inputs():
    netlist = build_half_adder()
    with pytest.raises(NetlistError):
        netlist.evaluate({"a": 1})


def test_structural_queries():
    netlist = build_half_adder()
    assert netlist.driver_of("sum").name == "sum_lut"
    assert netlist.driver_of("a") is None
    assert {c.name for c in netlist.loads_of("a")} == {"sum_lut", "carry_lut"}
    assert netlist.nets() == {"a", "b", "sum", "carry"}
    stats = netlist_stats(netlist)
    assert stats["cells"] == 2
    assert stats["LUT"] == 2


def test_lut_equivalent_area_counts_logic():
    netlist = build_half_adder()
    assert netlist.lut_equivalent_area() == 2.0


def test_register_cell_listing():
    netlist = Netlist("mixed")
    netlist.add_input("d")
    netlist.add_cell(make_dff("r0", "d", "q0"))
    netlist.add_cell(make_xor("x0", "d", "q0", "y"))
    netlist.add_output("y")
    assert [c.name for c in netlist.register_cells()] == ["r0"]
