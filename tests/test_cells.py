"""Unit tests for primitive cells."""

import pytest
from oracles import make_xor

from repro.netlist.cells import (
    Cell,
    CellType,
    DEFAULT_CELL_DELAY_PS,
    make_dff,
    make_lut,
    make_mux2,
)


def test_lut_requires_matching_truth_table_length():
    with pytest.raises(ValueError):
        make_lut("bad", ["a", "b"], "y", (0, 1))
    with pytest.raises(ValueError):
        Cell("bad", CellType.LUT, ("a",), "y", truth_table=None)


def test_lut_rejects_non_binary_truth_table():
    with pytest.raises(ValueError):
        make_lut("bad", ["a"], "y", (0, 2))


def test_lut_rejects_too_many_inputs():
    with pytest.raises(ValueError):
        make_lut("bad", [f"i{k}" for k in range(7)], "y", (0,) * 128)


def test_lut_evaluation_addresses_by_input_order():
    # Truth table index: input 0 is the LSB of the address.
    lut = make_lut("lut", ["a", "b"], "y", (0, 1, 0, 0))  # y = a AND NOT b
    assert lut.evaluate([1, 0]) == 1
    assert lut.evaluate([0, 0]) == 0
    assert lut.evaluate([1, 1]) == 0


def test_basic_gate_evaluation():
    assert make_xor("x", "a", "b", "y").evaluate([1, 1]) == 0
    assert make_xor("x", "a", "b", "y").evaluate([1, 0]) == 1
    assert Cell("a", CellType.AND2, ("a", "b"), "y").evaluate([1, 1]) == 1
    assert Cell("o", CellType.OR2, ("a", "b"), "y").evaluate([0, 1]) == 1
    assert Cell("i", CellType.INV, ("a",), "y").evaluate([1]) == 0
    assert Cell("b", CellType.BUF, ("a",), "y").evaluate([0]) == 0


def test_mux2_selects_between_inputs():
    mux = make_mux2("m", "sel", "a", "b", "y")
    assert mux.evaluate([0, 1, 0]) == 1  # sel=0 -> input a
    assert mux.evaluate([1, 1, 0]) == 0  # sel=1 -> input b


def test_mux2_requires_three_inputs():
    with pytest.raises(ValueError):
        Cell("m", CellType.MUX2, ("s", "a"), "y")


def test_constants_take_no_inputs():
    const = Cell("one", CellType.CONST1, (), "y")
    assert const.evaluate([]) == 1
    with pytest.raises(ValueError):
        Cell("bad", CellType.CONST0, ("a",), "y")


def test_dff_properties():
    dff = make_dff("r", "d", "q")
    assert dff.is_sequential
    assert not dff.is_combinational
    assert dff.evaluate([1]) == 1
    assert dff.lut_equivalents() == 0.0


def test_evaluate_rejects_wrong_operand_count():
    gate = make_xor("x", "a", "b", "y")
    with pytest.raises(ValueError):
        gate.evaluate([1])


def test_intrinsic_delays_positive_for_logic():
    for cell_type in (CellType.LUT, CellType.XOR2, CellType.MUX2):
        assert DEFAULT_CELL_DELAY_PS[cell_type] > 0
    assert DEFAULT_CELL_DELAY_PS[CellType.DFF] == 0.0


def test_lut_equivalents_accounting():
    lut = make_lut("l", ["a"], "y", (0, 1))
    assert lut.lut_equivalents() == 1.0
    assert make_mux2("m", "s", "a", "b", "y").lut_equivalents() == 0.0
