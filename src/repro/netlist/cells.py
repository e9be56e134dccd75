"""Primitive cells of the structural netlists.

The FPGA mapping in this reproduction uses the same small set of
primitives a Xilinx slice offers:

* ``LUT``     — a k-input look-up table (k <= 6) holding an arbitrary
                truth table,
* ``MUX2``    — the dedicated F7/F8 2:1 multiplexers that combine LUT
                outputs into wider functions,
* ``XOR2``/``AND2``/``OR2``/``INV``/``BUF`` — convenience primitives
                (mapped onto LUTs by real tools, kept explicit here for
                readability of generated circuits),
* ``DFF``     — the slice flip-flop, boundary of the timing paths,
* ``CONST0``/``CONST1`` — tie-off cells.

Every combinational cell knows how to evaluate itself; the
:class:`~repro.netlist.netlist.Netlist` uses this for functional
verification (equivalence against the behavioural AES) and for the
two-vector timing simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple


class CellType(str, Enum):
    """Enumeration of supported primitive cell types."""

    LUT = "LUT"
    MUX2 = "MUX2"
    XOR2 = "XOR2"
    AND2 = "AND2"
    OR2 = "OR2"
    INV = "INV"
    BUF = "BUF"
    DFF = "DFF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"


#: Intrinsic propagation delay of each cell type, in picoseconds.  These
#: are representative 65 nm FPGA values (a Virtex-5 LUT6 is ~90 ps); the
#: absolute scale only matters relative to the 35 ps glitch step and the
#: ~10 ns nominal clock period used by the experiments.
DEFAULT_CELL_DELAY_PS: Dict[CellType, float] = {
    CellType.LUT: 90.0,
    CellType.MUX2: 40.0,
    CellType.XOR2: 90.0,
    CellType.AND2: 90.0,
    CellType.OR2: 90.0,
    CellType.INV: 45.0,
    CellType.BUF: 30.0,
    CellType.DFF: 0.0,
    CellType.CONST0: 0.0,
    CellType.CONST1: 0.0,
}

#: Maximum number of LUT inputs (Virtex-5 uses 6-input LUTs).
MAX_LUT_INPUTS = 6


@dataclass
class Cell:
    """One instantiated primitive.

    Parameters
    ----------
    name:
        Unique instance name within the netlist.
    cell_type:
        One of :class:`CellType`.
    inputs:
        Names of the nets driving the cell inputs.  For ``MUX2`` the
        order is ``(select, in0, in1)``; for ``DFF`` it is ``(d,)``.
    output:
        Name of the net driven by the cell.
    truth_table:
        For ``LUT`` cells only: a tuple of ``2**len(inputs)`` bits where
        index ``i`` encodes the output for the input combination whose
        bit ``j`` is ``(i >> j) & 1`` (input 0 is the least-significant
        address bit).
    init:
        For ``DFF`` cells: the power-up value of the register.
    """

    name: str
    cell_type: CellType
    inputs: Tuple[str, ...]
    output: str
    truth_table: Optional[Tuple[int, ...]] = None
    init: int = 0

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self._validate()

    def _validate(self) -> None:
        ct = self.cell_type
        n = len(self.inputs)
        if ct == CellType.LUT:
            if not 1 <= n <= MAX_LUT_INPUTS:
                raise ValueError(
                    f"LUT {self.name!r} must have 1..{MAX_LUT_INPUTS} inputs, got {n}"
                )
            if self.truth_table is None:
                raise ValueError(f"LUT {self.name!r} requires a truth table")
            expected = 1 << n
            if len(self.truth_table) != expected:
                raise ValueError(
                    f"LUT {self.name!r} truth table must have {expected} entries, "
                    f"got {len(self.truth_table)}"
                )
            if any(bit not in (0, 1) for bit in self.truth_table):
                raise ValueError(f"LUT {self.name!r} truth table entries must be 0/1")
        elif ct == CellType.MUX2:
            if n != 3:
                raise ValueError(f"MUX2 {self.name!r} requires 3 inputs (sel, a, b)")
        elif ct in (CellType.XOR2, CellType.AND2, CellType.OR2):
            if n != 2:
                raise ValueError(f"{ct.value} {self.name!r} requires 2 inputs")
        elif ct in (CellType.INV, CellType.BUF, CellType.DFF):
            if n != 1:
                raise ValueError(f"{ct.value} {self.name!r} requires 1 input")
        elif ct in (CellType.CONST0, CellType.CONST1):
            if n != 0:
                raise ValueError(f"{ct.value} {self.name!r} takes no inputs")
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown cell type {ct}")

    @property
    def is_sequential(self) -> bool:
        return self.cell_type == CellType.DFF

    @property
    def is_constant(self) -> bool:
        return self.cell_type in (CellType.CONST0, CellType.CONST1)

    @property
    def is_combinational(self) -> bool:
        return not self.is_sequential and not self.is_constant

    def evaluate(self, input_values: Sequence[int]) -> int:
        """Evaluate the cell output for the given ordered input values.

        ``DFF`` cells are transparent here (they return their ``d``
        input); registers are handled by the netlist's cycle semantics.
        """
        values = tuple(int(v) & 1 for v in input_values)
        if len(values) != len(self.inputs):
            raise ValueError(
                f"cell {self.name!r} expects {len(self.inputs)} inputs, "
                f"got {len(values)}"
            )
        ct = self.cell_type
        if ct == CellType.LUT:
            index = 0
            for position, bit in enumerate(values):
                index |= bit << position
            assert self.truth_table is not None
            return self.truth_table[index]
        if ct == CellType.MUX2:
            select, in0, in1 = values
            return in1 if select else in0
        if ct == CellType.XOR2:
            return values[0] ^ values[1]
        if ct == CellType.AND2:
            return values[0] & values[1]
        if ct == CellType.OR2:
            return values[0] | values[1]
        if ct == CellType.INV:
            return values[0] ^ 1
        if ct in (CellType.BUF, CellType.DFF):
            return values[0]
        if ct == CellType.CONST0:
            return 0
        if ct == CellType.CONST1:
            return 1
        raise AssertionError(f"unhandled cell type {ct}")  # pragma: no cover

    def intrinsic_delay_ps(self) -> float:
        """Intrinsic (un-annotated) propagation delay of this cell."""
        return DEFAULT_CELL_DELAY_PS[self.cell_type]

    def lut_equivalents(self) -> float:
        """Approximate resource cost of the cell in 6-input LUTs.

        Used by the area accounting that expresses trojan size as a
        percentage of the AES design, matching the paper's
        slice-utilisation figures.
        """
        if self.cell_type == CellType.LUT:
            return 1.0
        if self.cell_type in (CellType.XOR2, CellType.AND2, CellType.OR2):
            return 1.0
        if self.cell_type in (CellType.INV, CellType.BUF):
            return 0.5
        if self.cell_type == CellType.MUX2:
            return 0.0  # dedicated F7/F8 mux, free in a slice
        if self.cell_type == CellType.DFF:
            return 0.0  # flip-flops pair with LUTs inside a slice
        return 0.0


def make_lut(name: str, inputs: Sequence[str], output: str,
             truth_table: Sequence[int]) -> Cell:
    """Convenience constructor for a LUT cell."""
    return Cell(
        name=name,
        cell_type=CellType.LUT,
        inputs=tuple(inputs),
        output=output,
        truth_table=tuple(int(b) for b in truth_table),
    )


def make_mux2(name: str, select: str, in0: str, in1: str, output: str) -> Cell:
    """Convenience constructor for a 2:1 MUX cell (F7/F8 style)."""
    return Cell(
        name=name, cell_type=CellType.MUX2, inputs=(select, in0, in1), output=output
    )


def make_dff(name: str, d: str, q: str, init: int = 0) -> Cell:
    """Convenience constructor for a D flip-flop."""
    return Cell(name=name, cell_type=CellType.DFF, inputs=(d,), output=q, init=init)
