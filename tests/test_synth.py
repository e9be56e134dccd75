"""Unit and property tests for LUT synthesis."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles import netlist_stats

from repro.netlist.netlist import Netlist
from repro.netlist.synth import (
    SynthesisError,
    cofactors,
    is_constant,
    synthesize_function,
    synthesize_reduction_tree,
    truth_table_from_function,
)


def _evaluate_synthesised(num_inputs, table):
    """Synthesise ``table`` and evaluate the result exhaustively."""
    netlist = Netlist("under_test")
    inputs = [netlist.add_input(f"i{k}") for k in range(num_inputs)]
    netlist.add_output("y")
    synthesize_function(netlist, "f_", inputs, "y", table)
    netlist.validate()
    observed = []
    for index in range(1 << num_inputs):
        values = {f"i{k}": (index >> k) & 1 for k in range(num_inputs)}
        observed.append(netlist.evaluate(values)["y"])
    return observed, netlist


def test_truth_table_from_function():
    table = truth_table_from_function(lambda idx: (idx >> 1) & 1, 2)
    assert table == (0, 0, 1, 1)
    with pytest.raises(SynthesisError):
        truth_table_from_function(lambda idx: 0, -1)


def test_cofactors_split_on_variable():
    # f(a, b) = a AND b, table index bit0=a bit1=b.
    table = (0, 0, 0, 1)
    f0, f1 = cofactors(table, 1)
    assert f0 == (0, 0)      # b = 0 -> constant 0
    assert f1 == (0, 1)      # b = 1 -> a
    with pytest.raises(SynthesisError):
        cofactors(table, 2)


def test_is_constant():
    assert is_constant((0, 0, 0, 0))
    assert not is_constant((0, 1, 0, 0))


def test_small_function_maps_to_single_lut():
    table = tuple((i ^ (i >> 1)) & 1 for i in range(16))
    observed, netlist = _evaluate_synthesised(4, table)
    assert tuple(observed) == table
    assert len(netlist.cells) == 1


def test_eight_input_function_uses_lut_mux_tree():
    table = tuple((bin(i).count("1") & 1) for i in range(256))
    observed, netlist = _evaluate_synthesised(8, table)
    assert tuple(observed) == table
    stats = netlist_stats(netlist)
    assert stats["LUT"] == 4
    assert stats["MUX2"] == 3


def test_truth_table_length_must_match_inputs():
    netlist = Netlist("bad")
    inputs = [netlist.add_input(f"i{k}") for k in range(3)]
    netlist.add_output("y")
    with pytest.raises(SynthesisError):
        synthesize_function(netlist, "f_", inputs, "y", (0, 1, 1, 0))


def test_reduction_tree_and_matches_python_all():
    netlist = Netlist("wide_and")
    inputs = [netlist.add_input(f"i{k}") for k in range(13)]
    netlist.add_output("y")
    cells = synthesize_reduction_tree(netlist, "and_", inputs, "y", "and")
    netlist.validate()
    assert len(cells) >= 3
    all_ones = {f"i{k}": 1 for k in range(13)}
    assert netlist.evaluate(all_ones)["y"] == 1
    one_zero = dict(all_ones, i7=0)
    assert netlist.evaluate(one_zero)["y"] == 0


def test_reduction_tree_xor_matches_parity():
    netlist = Netlist("wide_xor")
    inputs = [netlist.add_input(f"i{k}") for k in range(9)]
    netlist.add_output("y")
    synthesize_reduction_tree(netlist, "xor_", inputs, "y", "xor")
    values = {f"i{k}": (1 if k in (0, 3, 8) else 0) for k in range(9)}
    assert netlist.evaluate(values)["y"] == 1  # three ones -> odd parity


def test_reduction_tree_single_input_is_buffer():
    netlist = Netlist("single")
    netlist.add_input("i0")
    netlist.add_output("y")
    synthesize_reduction_tree(netlist, "r_", ["i0"], "y", "or")
    assert netlist.evaluate({"i0": 1})["y"] == 1
    assert netlist.evaluate({"i0": 0})["y"] == 0


def test_reduction_tree_rejects_bad_arguments():
    netlist = Netlist("bad")
    netlist.add_input("i0")
    netlist.add_output("y")
    with pytest.raises(SynthesisError):
        synthesize_reduction_tree(netlist, "r_", [], "y", "and")
    with pytest.raises(SynthesisError):
        synthesize_reduction_tree(netlist, "r_", ["i0"], "y", "nand")
    with pytest.raises(SynthesisError):
        synthesize_reduction_tree(netlist, "r_", ["i0"], "y", "and", lut_width=1)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_synthesis_equivalence_random_tables(num_inputs, data):
    """Shannon/LUT synthesis is functionally equivalent to the truth table."""
    table = tuple(
        data.draw(st.integers(min_value=0, max_value=1))
        for _ in range(1 << num_inputs)
    )
    observed, _ = _evaluate_synthesised(num_inputs, table)
    assert tuple(observed) == table
