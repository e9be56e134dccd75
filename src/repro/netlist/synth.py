"""Truth-table driven synthesis of LUT networks.

Real FPGA tool flows map arbitrary Boolean functions onto 6-input LUTs
plus the dedicated F7/F8 multiplexers of a slice.  This module provides
the small synthesiser the reproduction needs:

* :func:`synthesize_function` — Shannon decomposition of an n-input
  function (n can exceed 6) into a LUT6 + MUX tree, exactly the shape a
  Xilinx mapper produces for the 8-input AES S-box output bits,
* :func:`synthesize_reduction_tree` — wide AND/OR/XOR reduction trees
  built from 6-input LUT stages (used by the trojan trigger comparators
  and the key-addition network).

Both return the list of created cells; callers add them to a
:class:`~repro.netlist.netlist.Netlist`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from .cells import MAX_LUT_INPUTS, Cell, make_lut, make_mux2
from .netlist import Netlist


class SynthesisError(Exception):
    """Raised when a function cannot be synthesised."""


def truth_table_from_function(func: Callable[[int], int], num_inputs: int
                              ) -> Tuple[int, ...]:
    """Tabulate ``func`` over all ``2**num_inputs`` input combinations.

    ``func`` receives the input combination as an integer whose bit ``i``
    is the value of input ``i``.
    """
    if num_inputs < 0:
        raise SynthesisError("num_inputs must be non-negative")
    size = 1 << num_inputs
    return tuple(int(func(i)) & 1 for i in range(size))


def cofactors(table: Sequence[int], variable: int
              ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Shannon cofactors of ``table`` with respect to input ``variable``.

    Returns ``(f0, f1)`` where ``f0`` fixes the variable to 0 and ``f1``
    to 1; both are truth tables over the remaining inputs (the variable
    is removed, higher inputs shift down by one position).
    """
    n = _num_inputs(table)
    if not 0 <= variable < n:
        raise SynthesisError(f"variable {variable} out of range for {n} inputs")
    f0: List[int] = []
    f1: List[int] = []
    for index in range(1 << (n - 1)):
        low = index & ((1 << variable) - 1)
        high = index >> variable
        base = low | (high << (variable + 1))
        f0.append(table[base])
        f1.append(table[base | (1 << variable)])
    return tuple(f0), tuple(f1)


def _num_inputs(table: Sequence[int]) -> int:
    size = len(table)
    n = size.bit_length() - 1
    if size != 1 << n or size == 0:
        raise SynthesisError(f"truth table length {size} is not a power of two")
    return n


def is_constant(table: Sequence[int]) -> bool:
    """True if the truth table is a constant function."""
    return len(set(table)) == 1


def synthesize_function(netlist: Netlist, prefix: str, input_nets: Sequence[str],
                        output_net: str, table: Sequence[int]) -> List[Cell]:
    """Map one Boolean function onto the netlist as a LUT/MUX tree.

    Parameters
    ----------
    netlist:
        Target netlist the created cells are added to.
    prefix:
        Unique prefix for created cell and intermediate net names.
    input_nets:
        Ordered input net names (input ``i`` is the i-th address bit of
        the truth table).
    output_net:
        Net to drive with the function output.
    table:
        Truth table with ``2**len(input_nets)`` entries.

    Returns
    -------
    The list of cells created, in creation order.
    """
    n = _num_inputs(table)
    if n != len(input_nets):
        raise SynthesisError(
            f"truth table has {n} inputs but {len(input_nets)} nets were given"
        )
    created: List[Cell] = []
    _synthesize_recursive(netlist, prefix, list(input_nets), output_net,
                          tuple(int(b) & 1 for b in table), created)
    return created


def _synthesize_recursive(netlist: Netlist, prefix: str, input_nets: List[str],
                          output_net: str, table: Tuple[int, ...],
                          created: List[Cell]) -> None:
    n = _num_inputs(table)
    if n <= MAX_LUT_INPUTS:
        if n == 0:
            # Constant function: realise as a 1-input LUT fed by any net is
            # not possible without an input, so use a LUT on a dummy input
            # only if one exists; otherwise this is a degenerate request.
            raise SynthesisError(
                "cannot synthesise a 0-input function; tie the net to a constant cell"
            )
        cell = make_lut(f"{prefix}lut", input_nets, output_net, table)
        netlist.add_cell(cell)
        created.append(cell)
        return

    # Shannon-expand on the highest-numbered input (the F7/F8 select pin).
    variable = n - 1
    select_net = input_nets[variable]
    remaining = input_nets[:variable]
    f0, f1 = cofactors(table, variable)
    net0 = f"{prefix}s0"
    net1 = f"{prefix}s1"

    if is_constant(f0):
        _emit_constant_branch(netlist, f"{prefix}c0_", remaining, net0, f0, created)
    else:
        _synthesize_recursive(netlist, f"{prefix}n0_", list(remaining), net0, f0, created)
    if is_constant(f1):
        _emit_constant_branch(netlist, f"{prefix}c1_", remaining, net1, f1, created)
    else:
        _synthesize_recursive(netlist, f"{prefix}n1_", list(remaining), net1, f1, created)

    mux = make_mux2(f"{prefix}mux", select_net, net0, net1, output_net)
    netlist.add_cell(mux)
    created.append(mux)


def _emit_constant_branch(netlist: Netlist, prefix: str, input_nets: Sequence[str],
                          output_net: str, table: Sequence[int],
                          created: List[Cell]) -> None:
    """Realise a constant cofactor as a 1-input LUT (constant generator)."""
    value = int(table[0]) & 1
    if not input_nets:
        raise SynthesisError("constant branch requires at least one input net")
    cell = make_lut(prefix + "lut", [input_nets[0]], output_net, (value, value))
    netlist.add_cell(cell)
    created.append(cell)


# ---------------------------------------------------------------------------
# Reduction trees
# ---------------------------------------------------------------------------

_REDUCTION_OPS = {
    "and": lambda bits: int(all(bits)),
    "or": lambda bits: int(any(bits)),
    "xor": lambda bits: int(sum(bits) % 2),
}


def synthesize_reduction_tree(netlist: Netlist, prefix: str,
                              input_nets: Sequence[str], output_net: str,
                              operation: str = "and",
                              lut_width: int = MAX_LUT_INPUTS) -> List[Cell]:
    """Build a wide AND/OR/XOR reduction over ``input_nets`` using LUT stages.

    Inputs are grouped ``lut_width`` at a time into LUTs computing the
    partial reduction, and the partial results are reduced again until a
    single net remains, which drives ``output_net``.  This mirrors how a
    mapper implements the trojan trigger comparators (e.g. "all 32
    SubBytes input bits are 1").
    """
    if operation not in _REDUCTION_OPS:
        raise SynthesisError(f"unsupported reduction {operation!r}")
    if not input_nets:
        raise SynthesisError("reduction tree requires at least one input")
    if not 2 <= lut_width <= MAX_LUT_INPUTS:
        raise SynthesisError(
            f"lut_width must be in 2..{MAX_LUT_INPUTS}, got {lut_width}"
        )
    reducer = _REDUCTION_OPS[operation]
    created: List[Cell] = []
    level = 0
    current = list(input_nets)

    while len(current) > 1:
        next_level: List[str] = []
        for group_index in range(0, len(current), lut_width):
            group = current[group_index : group_index + lut_width]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            is_last = len(current) <= lut_width
            out_net = output_net if is_last else (
                f"{prefix}l{level}_g{group_index // lut_width}"
            )
            table = truth_table_from_function(
                lambda idx, width=len(group): reducer(
                    [(idx >> j) & 1 for j in range(width)]
                ),
                len(group),
            )
            cell = make_lut(
                f"{prefix}l{level}_lut{group_index // lut_width}",
                group, out_net, table,
            )
            netlist.add_cell(cell)
            created.append(cell)
            next_level.append(out_net)
        current = next_level
        level += 1

    if not created:
        # Single input net: insert a buffer-like LUT so the output net exists.
        cell = make_lut(f"{prefix}buf", [current[0]], output_net, (0, 1))
        netlist.add_cell(cell)
        created.append(cell)
    return created
