"""Structural netlist substrate: cells, netlists, synthesis and timing.

The netlist layer is the "silicon" of this reproduction: the AES last
round (its 16 S-boxes synthesised from the generated table) and the
trojan triggers are built as LUT-mapped netlists, placed onto an FPGA
fabric model, annotated with process-variation and power-grid delays,
and analysed by the compiled timing engine that feeds the clock-glitch
fault model.  ``Netlist.evaluate`` is the interpreted cell-by-cell
semantics the compiled kernel is pinned to.
"""

from .aes_round_circuit import (
    AESLastRoundCircuit,
    paper_bit_to_byte_bit,
)
from .cells import (
    Cell,
    CellType,
    DEFAULT_CELL_DELAY_PS,
    MAX_LUT_INPUTS,
    make_dff,
    make_lut,
    make_mux2,
)
from .compiled import (DEFAULT_NET_DELAY_PS, CompiledNetlist,
                       CompiledTimingEngine, DelayVectors)
from .netlist import Netlist, NetlistError
from .synth import (
    SynthesisError,
    cofactors,
    synthesize_function,
    synthesize_reduction_tree,
    truth_table_from_function,
)

__all__ = [
    "AESLastRoundCircuit",
    "paper_bit_to_byte_bit",
    "Cell",
    "CellType",
    "DEFAULT_CELL_DELAY_PS",
    "MAX_LUT_INPUTS",
    "make_dff",
    "make_lut",
    "make_mux2",
    "CompiledNetlist",
    "CompiledTimingEngine",
    "Netlist",
    "NetlistError",
    "SynthesisError",
    "cofactors",
    "synthesize_function",
    "synthesize_reduction_tree",
    "truth_table_from_function",
    "DEFAULT_NET_DELAY_PS",
    "DelayVectors",
]
