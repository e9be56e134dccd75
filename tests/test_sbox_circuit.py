"""Equivalence tests for the gate-level S-box."""

import pytest

from oracles import (
    build_sbox_netlist,
    evaluate_sbox_netlist,
    netlist_stats,
    sbox_input_net,
    sbox_netlist_truth_table,
    sbox_output_net,
)

from repro.crypto.sbox import SBOX
from repro.netlist.cells import CellType


@pytest.fixture(scope="module")
def sbox_netlist():
    return build_sbox_netlist()


def test_net_namers_validate_bit_index():
    assert sbox_input_net(0) == "in0"
    assert sbox_output_net(7) == "out7"
    with pytest.raises(ValueError):
        sbox_input_net(8)
    with pytest.raises(ValueError):
        sbox_output_net(-1)


def test_sbox_netlist_structure(sbox_netlist):
    stats = netlist_stats(sbox_netlist)
    # 8 output bits x (4 LUT6 + 3 MUX) = 32 LUTs and 24 muxes.
    assert stats["LUT"] == 32
    assert stats["MUX2"] == 24
    assert len(sbox_netlist.inputs) == 8
    assert len(sbox_netlist.outputs) == 8


def test_sbox_netlist_full_equivalence(sbox_netlist):
    assert sbox_netlist_truth_table(sbox_netlist) == list(SBOX)


def test_evaluate_rejects_out_of_range(sbox_netlist):
    with pytest.raises(ValueError):
        evaluate_sbox_netlist(sbox_netlist, 256)


def test_sbox_netlist_is_purely_combinational(sbox_netlist):
    assert not any(cell.cell_type == CellType.DFF
                   for cell in sbox_netlist.cells.values())
