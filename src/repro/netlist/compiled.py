"""Compiled netlist kernel: vectorised evaluation and array-based timing.

The interpreted :meth:`~repro.netlist.netlist.Netlist.evaluate` walks a
dict of per-net ints one cell at a time — perfect as an executable
specification, far too slow for campaigns that sweep thousands of
(stimulus, die) combinations.  This module lowers a validated netlist
**once** into flat NumPy arrays and then evaluates *all stimulus vectors
at once*:

* every combinational cell is normalised to a truth-table LUT (MUX2,
  XOR2... become small tables), stored in one flat ``uint8`` array with
  per-cell offsets;
* cells are grouped into **topological levels**; one level is evaluated
  with a handful of vectorised gathers (address = packed input bits,
  output = ``tables[offset + address]``) over a ``(num_vectors,
  num_nets)`` value matrix — the Python interpreter runs O(levels x
  max_arity) operations instead of O(cells x vectors);
* :class:`CompiledTimingEngine` runs the same levelised sweep over
  ``float64`` *arrival* arrays, broadcasting per-die cell/net delay
  vectors so a single pass covers every (stimulus pair, die)
  combination of a delay campaign.

Both kernels are the only implementations of netlist evaluation and
timing in the package.  The interpreted cell-by-cell walks they are
pinned against bit for bit (the same float operations, applied in an
order whose result is unchanged) live with the tests, in
``tests/oracles/``.

Compiled netlists are cached on the netlist itself
(:meth:`~repro.netlist.netlist.Netlist.compiled`); structural edits
invalidate the cache together with the topological order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .cells import Cell, CellType
from .netlist import Netlist, NetlistError

#: Upper bound on the boolean toggle-chunk size (elements) the
#: switching-activity kernel materialises at once; bounds peak RSS at
#: million-die scale instead of the full (groups x states x nets)
#: tensor.
_TOGGLE_CHUNK_ELEMS = 1 << 21

#: Truth table of the MUX2 primitive in LUT form.  Input order is the
#: cell's ``(select, in0, in1)``, with input 0 as address bit 0:
#: ``out = in1 if select else in0``.
_MUX2_TABLE = (0, 0, 1, 0, 0, 1, 1, 1)

#: LUT forms of the fixed-function primitives (input 0 = address bit 0).
_PRIMITIVE_TABLES: Dict[CellType, Tuple[int, ...]] = {
    CellType.MUX2: _MUX2_TABLE,
    CellType.XOR2: (0, 1, 1, 0),
    CellType.AND2: (0, 0, 0, 1),
    CellType.OR2: (0, 1, 1, 1),
    CellType.INV: (1, 0),
    CellType.BUF: (0, 1),
}


def _cell_table(cell: Cell) -> Tuple[int, ...]:
    """The truth table realising ``cell`` (LUT normal form)."""
    if cell.cell_type == CellType.LUT:
        assert cell.truth_table is not None
        return cell.truth_table
    try:
        return _PRIMITIVE_TABLES[cell.cell_type]
    except KeyError as exc:  # pragma: no cover - guarded by caller
        raise NetlistError(
            f"cell {cell.name!r} of type {cell.cell_type} has no LUT form"
        ) from exc


@dataclass
class CompiledNetlist:
    """A netlist lowered to flat arrays for batched evaluation.

    The value matrix convention: one row per stimulus vector, one column
    per net (column order is :attr:`net_names`), plus one trailing
    always-zero padding column used to make every cell's input list the
    same width.  All public methods hide the padding column.
    """

    netlist: Netlist
    #: Net name -> column index (excludes the padding column).
    net_index: Dict[str, int]
    #: Column order of the value matrices.
    net_names: List[str]
    #: Columns of the declared primary inputs, in declaration order.
    input_columns: np.ndarray
    #: Combinational cells in levelised topological order.
    comb_cell_names: List[str]
    #: Per-cell input arity, shape ``(num_comb,)``.
    arity: np.ndarray
    #: Per-cell input columns padded to ``max_arity`` with the zero column.
    input_idx: np.ndarray
    #: Per-cell output column, shape ``(num_comb,)``.
    output_idx: np.ndarray
    #: Per-cell offset into :attr:`tables`.
    table_offset: np.ndarray
    #: Concatenated truth tables of every combinational cell.
    tables: np.ndarray
    #: ``(start, end)`` ranges into the cell arrays, one per topo level.
    level_slices: List[Tuple[int, int]]
    #: Columns of CONST1 outputs (CONST0 columns stay zero).
    const_one_columns: np.ndarray
    #: DFF output columns and their power-up values.
    dff_columns: np.ndarray
    dff_init: np.ndarray
    #: DFF output net name -> column (register-value overrides).
    dff_index: Dict[str, int]
    #: Output column of *every* cell (cells-dict order) and the flattened
    #: input-pin columns of every cell — the two gather tables the
    #: toggle-count (switching-activity) kernel sums over.
    all_output_columns: np.ndarray
    all_pin_columns: np.ndarray

    # -- construction -----------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "CompiledNetlist":
        """Lower ``netlist`` (validating it) into flat arrays."""
        netlist.validate()
        topo = netlist.topological_order()

        net_names: List[str] = []
        net_index: Dict[str, int] = {}

        def column(net: str) -> int:
            if net not in net_index:
                net_index[net] = len(net_names)
                net_names.append(net)
            return net_index[net]

        for net in netlist.inputs:
            column(net)
        for cell in netlist.cells.values():
            column(cell.output)
            for net in cell.inputs:
                column(net)

        num_nets = len(net_names)
        zero_column = num_nets  # trailing padding column, always 0

        # Levelise: level(cell) = 1 + max(level of combinational drivers).
        drivers = {cell.output: cell for cell in netlist.cells.values()}
        level_of: Dict[str, int] = {}
        for cell in topo:
            level = 0
            for net in cell.inputs:
                driver = drivers.get(net)
                if driver is not None and driver.is_combinational:
                    level = max(level, level_of[driver.name] + 1)
            level_of[cell.name] = level
        ordered = sorted(topo, key=lambda c: (level_of[c.name],))

        num_comb = len(ordered)
        max_arity = max((len(c.inputs) for c in ordered), default=1)
        arity = np.zeros(num_comb, dtype=np.int32)
        input_idx = np.full((num_comb, max_arity), zero_column, dtype=np.int32)
        output_idx = np.zeros(num_comb, dtype=np.int32)
        table_offset = np.zeros(num_comb, dtype=np.int32)
        table_chunks: List[np.ndarray] = []
        offset = 0
        level_slices: List[Tuple[int, int]] = []
        level_start = 0
        for position, cell in enumerate(ordered):
            if position and level_of[cell.name] != level_of[ordered[position - 1].name]:
                level_slices.append((level_start, position))
                level_start = position
            arity[position] = len(cell.inputs)
            for pin, net in enumerate(cell.inputs):
                input_idx[position, pin] = net_index[net]
            output_idx[position] = net_index[cell.output]
            table = np.asarray(_cell_table(cell), dtype=np.uint8)
            table_offset[position] = offset
            table_chunks.append(table)
            offset += table.size
        if num_comb:
            level_slices.append((level_start, num_comb))
        tables = (np.concatenate(table_chunks) if table_chunks
                  else np.zeros(0, dtype=np.uint8))

        const_one = [net_index[c.output] for c in netlist.cells.values()
                     if c.cell_type == CellType.CONST1]
        dff_cells = [c for c in netlist.cells.values() if c.is_sequential]
        dff_columns = np.array([net_index[c.output] for c in dff_cells],
                               dtype=np.int32)
        dff_init = np.array([c.init & 1 for c in dff_cells], dtype=np.uint8)
        dff_index = {c.output: net_index[c.output] for c in dff_cells}

        all_outputs = np.array(
            [net_index[c.output] for c in netlist.cells.values()],
            dtype=np.int32,
        )
        all_pins = np.array(
            [net_index[net] for c in netlist.cells.values() for net in c.inputs],
            dtype=np.int32,
        )

        return cls(
            netlist=netlist,
            net_index=net_index,
            net_names=net_names,
            input_columns=np.array([net_index[n] for n in netlist.inputs],
                                   dtype=np.int32),
            comb_cell_names=[c.name for c in ordered],
            arity=arity,
            input_idx=input_idx,
            output_idx=output_idx,
            table_offset=table_offset,
            tables=tables,
            level_slices=level_slices,
            const_one_columns=np.array(const_one, dtype=np.int32),
            dff_columns=dff_columns,
            dff_init=dff_init,
            dff_index=dff_index,
            all_output_columns=all_outputs,
            all_pin_columns=all_pins,
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    def columns_for(self, nets: Sequence[str]) -> np.ndarray:
        """Value-matrix columns of ``nets`` (raises on unknown nets)."""
        try:
            return np.array([self.net_index[net] for net in nets],
                            dtype=np.int32)
        except KeyError as exc:
            raise NetlistError(
                f"net {exc.args[0]!r} does not exist in netlist "
                f"{self.netlist.name!r}"
            ) from exc

    # -- batched evaluation ---------------------------------------------------

    def _blank_state(self, num_vectors: int) -> np.ndarray:
        """Value matrix with constants and DFF power-up values applied."""
        state = np.zeros((num_vectors, self.num_nets + 1), dtype=np.uint8)
        if self.const_one_columns.size:
            state[:, self.const_one_columns] = 1
        if self.dff_columns.size:
            state[:, self.dff_columns] = self.dff_init[None, :]
        return state

    def evaluate_batch(self, input_rows: np.ndarray,
                       input_nets: Optional[Sequence[str]] = None,
                       register_rows: Optional[np.ndarray] = None,
                       register_nets: Optional[Sequence[str]] = None
                       ) -> np.ndarray:
        """Evaluate every net for a batch of stimulus vectors.

        Parameters
        ----------
        input_rows:
            ``(num_vectors, len(input_nets))`` 0/1 matrix.
        input_nets:
            Net driven by each column of ``input_rows``; defaults to the
            netlist's declared primary inputs (in declaration order).
            Must cover every declared input; nets unknown to the netlist
            are ignored (the interpreted walk also accepts and ignores
            stray stimulus entries).
        register_rows / register_nets:
            Optional per-vector DFF output (Q) values, same convention.
            Entries for nets that are not DFF outputs are ignored, as in
            :meth:`Netlist.evaluate`.

        Returns
        -------
        ``(num_vectors, num_nets)`` uint8 matrix; columns follow
        :attr:`net_names`.
        """
        input_rows = np.ascontiguousarray(input_rows, dtype=np.uint8) & 1
        if input_rows.ndim != 2:
            raise NetlistError("input_rows must be a 2-D (vectors x nets) matrix")
        if input_nets is None:
            input_nets = self.netlist.inputs
        input_nets = list(input_nets)
        if input_rows.shape[1] != len(input_nets):
            raise NetlistError(
                f"input_rows has {input_rows.shape[1]} columns for "
                f"{len(input_nets)} input nets"
            )
        missing = set(self.netlist.inputs) - set(input_nets)
        if missing:
            raise NetlistError(
                f"missing value for primary input {sorted(missing)[0]!r}"
            )

        state = self._blank_state(input_rows.shape[0])
        known = [pos for pos, net in enumerate(input_nets)
                 if net in self.net_index]
        cols = np.array([self.net_index[input_nets[pos]] for pos in known],
                        dtype=np.int32)
        known_nets = [input_nets[pos] for pos in known]
        if len(set(known_nets)) != len(known_nets):
            # Duplicate known nets would make the fancy assignment below
            # depend on numpy's (undefined) duplicate-index write order;
            # the interpreted reference takes a Mapping, which cannot
            # express duplicates at all — so neither do we.  Duplicates
            # among *stray* (unknown) nets stay ignored, as before.
            duplicates = sorted({net for net in known_nets
                                 if known_nets.count(net) > 1})
            raise NetlistError(
                f"duplicate stimulus net(s) {duplicates} in input_nets"
            )
        state[:, cols] = input_rows[:, known]
        # Constants and register values override stray stimulus entries,
        # exactly as the interpreted walk's write order does.
        if self.const_one_columns.size:
            state[:, self.const_one_columns] = 1
        if self.dff_columns.size:
            state[:, self.dff_columns] = self.dff_init[None, :]
        if register_rows is not None:
            register_rows = np.ascontiguousarray(register_rows,
                                                 dtype=np.uint8) & 1
            register_nets = list(register_nets or [])
            if register_rows.ndim != 2 or \
                    register_rows.shape[1] != len(register_nets):
                raise NetlistError(
                    "register_rows must be (vectors x len(register_nets))"
                )
            if register_rows.shape[0] != input_rows.shape[0]:
                raise NetlistError(
                    "register_rows and input_rows must have the same "
                    "number of vectors"
                )
            reg_known = [pos for pos, net in enumerate(register_nets)
                         if net in self.dff_index]
            reg_nets_known = [register_nets[pos] for pos in reg_known]
            if len(set(reg_nets_known)) != len(reg_nets_known):
                duplicates = sorted({net for net in reg_nets_known
                                     if reg_nets_known.count(net) > 1})
                raise NetlistError(
                    f"duplicate register net(s) {duplicates} in register_nets"
                )
            reg_cols = np.array(
                [self.dff_index[register_nets[pos]] for pos in reg_known],
                dtype=np.int32,
            )
            if reg_cols.size:
                state[:, reg_cols] = register_rows[:, reg_known]

        self._sweep(state)
        return state[:, : self.num_nets]

    @cached_property
    def _level_widths_arities(self) -> List[Tuple[int, int]]:
        """Per level: (cell count, max arity) — sized once per lowering."""
        return [(end - start, int(self.arity[start:end].max()))
                for start, end in self.level_slices]

    def _sweep(self, state: np.ndarray) -> None:
        """Levelised vectorised evaluation over a padded value matrix.

        The per-level LUT addresses accumulate into one reused int32
        scratch pair (sized to the widest level) via ufunc ``out=``
        writes, instead of re-materialising an int32 copy of every
        gathered pin slice — same arithmetic, no per-pin temporaries.
        The scratch is kept flat and reshaped per level so every ufunc
        writes a contiguous block (a ``[:, :width]`` view would stride).
        """
        if not self.level_slices:
            return
        num_vectors = state.shape[0]
        max_width = max(width for width, _ in self._level_widths_arities)
        address = np.empty(num_vectors * max_width, dtype=np.int32)
        shifted = np.empty(num_vectors * max_width, dtype=np.int32)
        for (start, end), (width, arity) in zip(self.level_slices,
                                                self._level_widths_arities):
            level_elems = num_vectors * width
            level_address = address[:level_elems].reshape(num_vectors, width)
            level_shifted = shifted[:level_elems].reshape(num_vectors, width)
            np.copyto(level_address, state[:, self.input_idx[start:end, 0]],
                      casting="unsafe")
            for pin in range(1, arity):
                # Padded pins gather the always-zero column and therefore
                # contribute nothing to the address.  The cast and the
                # shift run as separate passes: a dtype-converting ufunc
                # ``out=`` would fall into numpy's buffered (slower)
                # inner loop, while copyto casts at memcpy speed.
                np.copyto(level_shifted, state[:, self.input_idx[start:end,
                                                                 pin]],
                          casting="unsafe")
                np.left_shift(level_shifted, pin, out=level_shifted)
                np.bitwise_or(level_address, level_shifted,
                              out=level_address)
            np.add(level_address, self.table_offset[start:end][None, :],
                   out=level_address)
            state[:, self.output_idx[start:end]] = self.tables[level_address]

    # -- switching activity ---------------------------------------------------

    @cached_property
    def _toggle_gather(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique toggle columns plus int64 multiplicity weights.

        ``all_pin_columns`` holds one entry per cell input *pin*, so a
        net fanning out to several pins appears several times; summing
        a gathered boolean over those duplicates equals a weighted sum
        over the unique columns — which is what the lean toggle kernel
        computes.
        """
        combined = np.concatenate([self.all_output_columns,
                                   self.all_pin_columns])
        unique_cols = np.unique(combined) if combined.size else \
            np.zeros(0, dtype=np.int64)
        length = self.num_nets + 1
        output_weights = np.bincount(self.all_output_columns,
                                     minlength=length)[unique_cols]
        pin_weights = np.bincount(self.all_pin_columns,
                                  minlength=length)[unique_cols]
        return (unique_cols.astype(np.int64),
                output_weights.astype(np.int64),
                pin_weights.astype(np.int64))

    def toggle_counts(self, values: np.ndarray
                      ) -> "Tuple[np.ndarray, np.ndarray]":
        """Per-transition output and input-pin toggle counts.

        ``values`` is an ``(num_states, num_nets)`` matrix of successive
        evaluations (e.g. one row per clock cycle); the result is a pair
        of ``(num_states - 1,)`` int arrays counting, for each
        consecutive pair of rows, how many cell outputs and how many
        cell input pins changed value — what comparing two interpreted
        :meth:`~repro.netlist.netlist.Netlist.evaluate` walks would give.

        A ``(num_groups, num_states, num_nets)`` tensor counts every
        group independently along its own state axis (no toggles are
        counted across group boundaries) and returns
        ``(num_groups, num_states - 1)`` arrays — one batched pass for
        e.g. every encryption of a stimulus sweep.
        """
        if values.ndim not in (2, 3) or values.shape[-1] != self.num_nets:
            raise NetlistError(
                f"values must be (states x {self.num_nets}) or "
                f"(groups x states x {self.num_nets}), got {values.shape}"
            )
        # Lean kernel: instead of materialising the full (groups x
        # states x nets) boolean toggle tensor plus two gathered copies
        # (the peak-RSS driver at million-die scale), gather only the
        # columns any cell output or pin actually uses, one bounded
        # transition chunk at a time, and fold fan-out multiplicity
        # into int64 weight vectors.  Results are identical.
        squeeze = values.ndim == 2
        tensor = values[None] if squeeze else values
        groups, states = tensor.shape[0], tensor.shape[1]
        transitions = max(states - 1, 0)
        unique_cols, output_weights, pin_weights = self._toggle_gather
        output_toggles = np.zeros((groups, transitions), dtype=np.int64)
        pin_toggles = np.zeros((groups, transitions), dtype=np.int64)
        if transitions and unique_cols.size:
            step = max(1, _TOGGLE_CHUNK_ELEMS
                       // max(1, groups * unique_cols.size))
            for begin in range(0, transitions, step):
                stop = min(transitions, begin + step)
                before = tensor[:, begin:stop][..., unique_cols]
                after = tensor[:, begin + 1:stop + 1][..., unique_cols]
                flat = (before != after).reshape(-1, unique_cols.size)
                output_toggles[:, begin:stop] = \
                    (flat @ output_weights).reshape(groups, stop - begin)
                pin_toggles[:, begin:stop] = \
                    (flat @ pin_weights).reshape(groups, stop - begin)
        if squeeze:
            return output_toggles[0], pin_toggles[0]
        return output_toggles, pin_toggles


#: Default routing delay per net, in picoseconds (a short intra-slice route).
DEFAULT_NET_DELAY_PS = 120.0


class DelayVectors(NamedTuple):
    """One die's delay annotation of a netlist: the total delay of each
    of its ``comb_cell_names`` and the routing delay of each of its
    ``net_names``, in that order (built by
    :func:`repro.fpga.annotation.build_delay_annotation`)."""

    cell_delays_ps: np.ndarray
    net_delays_ps: np.ndarray


class CompiledTimingEngine:
    """Array-based two-vector timing over one compiled netlist.

    The engine evaluates the last-transition arrival model (a cell output
    that changes value transitions after the latest of its toggling
    inputs, plus routing and cell delay) for a whole batch of stimulus transitions and a whole batch of delay
    annotations (dies) in one levelised sweep: arrivals live in a
    ``(num_pairs, num_dies, num_nets)`` float64 array (NaN = stable
    net), and per-die cell/net delay vectors broadcast across the pair
    axis.  Each element equals — bit for bit — what the interpreted
    cell-by-cell walk produces for that (pair, die).

    Parameters
    ----------
    compiled:
        A :class:`CompiledNetlist` (or a :class:`Netlist`, lowered via
        its cache).
    annotations:
        One :class:`DelayVectors` per die (or a single one), in this
        netlist's compiled order; the engine stacks them as they are.
    input_arrival_ps:
        Launch time of toggling primary inputs.
    """

    def __init__(self, compiled: Union[CompiledNetlist, Netlist],
                 annotations: Union[DelayVectors, Sequence[DelayVectors]],
                 input_arrival_ps: float = 0.0):
        if isinstance(compiled, Netlist):
            compiled = compiled.compiled()
        self.compiled = compiled
        if isinstance(annotations, DelayVectors):
            annotations = [annotations]
        if not annotations:
            raise ValueError("at least one delay annotation is required")
        self.input_arrival_ps = float(input_arrival_ps)
        # (num_dies, num_comb) cell delays and (num_dies, num_nets + 1)
        # net delays; the padding column keeps gathers in-bounds (it is
        # masked out by the never-toggling padded inputs).
        self.cell_delays = np.stack([annotation.cell_delays_ps
                                     for annotation in annotations])
        net_delays = np.stack([annotation.net_delays_ps
                               for annotation in annotations])
        if (self.cell_delays.shape[1], net_delays.shape[1]) != \
                (len(compiled.comb_cell_names), compiled.num_nets):
            raise ValueError("delay vectors do not fit the combinational "
                             "cells and nets of this netlist")
        self.net_delays = np.concatenate(
            [net_delays, np.zeros((len(annotations), 1))], axis=1)

    @property
    def num_dies(self) -> int:
        return self.cell_delays.shape[0]

    # -- batched two-vector timing -----------------------------------------------

    def two_vector_arrivals(self, before_rows: np.ndarray,
                            after_rows: np.ndarray,
                            input_nets: Optional[Sequence[str]] = None
                            ) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Arrival times for a batch of input transitions on every die.

        Returns ``(values_before, values_after, arrivals)`` where the
        value matrices have shape ``(num_pairs, num_nets)`` and
        ``arrivals`` has shape ``(num_pairs, num_dies, num_nets)`` with
        NaN marking nets that are stable for that transition.
        """
        compiled = self.compiled
        values_before = compiled.evaluate_batch(before_rows, input_nets)
        values_after = compiled.evaluate_batch(after_rows, input_nets)
        num_pairs = values_before.shape[0]
        num_dies = self.num_dies

        toggles = np.concatenate(
            [values_before != values_after,
             np.zeros((num_pairs, 1), dtype=bool)], axis=1
        )
        arrivals = np.full((num_pairs, num_dies, compiled.num_nets + 1),
                           np.nan)
        in_cols = compiled.input_columns
        arrivals[:, :, in_cols] = np.where(
            toggles[:, None, in_cols], self.input_arrival_ps, np.nan
        )

        for start, end in compiled.level_slices:
            arity = int(compiled.arity[start:end].max())
            out_cols = compiled.output_idx[start:end]
            launch = np.full((num_pairs, num_dies, end - start), -np.inf)
            for pin in range(arity):
                pin_cols = compiled.input_idx[start:end, pin]
                pin_toggles = toggles[:, pin_cols]          # (P, C)
                pin_arrivals = arrivals[:, :, pin_cols]     # (P, D, C)
                candidate = pin_arrivals + self.net_delays[None, :, pin_cols]
                valid = pin_toggles[:, None, :] & ~np.isnan(pin_arrivals)
                launch = np.maximum(launch,
                                    np.where(valid, candidate, -np.inf))
            # An output that toggles although no (known-arrival) input
            # toggles launches at the clock edge, as in the interpreted
            # engine.
            launch = np.where(np.isneginf(launch), self.input_arrival_ps,
                              launch)
            arrival_out = launch + self.cell_delays[None, :, start:end]
            arrivals[:, :, out_cols] = np.where(
                toggles[:, None, out_cols], arrival_out, np.nan
            )
        return values_before, values_after, arrivals[:, :, : compiled.num_nets]

    def endpoint_arrivals(self, arrivals: np.ndarray,
                          endpoint_nets: Sequence[str]) -> np.ndarray:
        """Arrival at each endpoint including its routing delay.

        ``arrivals`` is the third element of
        :meth:`two_vector_arrivals`; the result has shape
        ``(num_pairs, num_dies, len(endpoint_nets))`` with NaN for
        stable endpoints (the interpreted engine's ``None``).
        """
        cols = self.compiled.columns_for(endpoint_nets)
        return arrivals[:, :, cols] + self.net_delays[None, :, cols]

    def critical_path_ps(self, nets: Optional[Iterable[str]] = None
                         ) -> np.ndarray:
        """Static (data-independent) worst arrival over ``nets``, per die.

        ``nets`` defaults to the DFF D inputs, else the primary outputs;
        each endpoint's arrival includes its routing delay.  One
        levelised max sweep: a cell output arrives at the latest of its
        inputs' arrival plus routing delay, plus the cell delay (the
        same add-then-max float order as the interpreted static
        analysis).  Returns shape ``(num_dies,)``.
        """
        compiled = self.compiled
        if nets is None:
            registers = compiled.netlist.register_cells()
            nets = ([cell.inputs[0] for cell in registers] if registers
                    else compiled.netlist.outputs)
        cols = [compiled.net_index[net] for net in nets
                if net in compiled.net_index]
        if not cols:
            raise NetlistError("no observable nets for critical path "
                               "computation")
        arrivals = np.full((self.num_dies, compiled.num_nets + 1),
                           self.input_arrival_ps)
        arrivals[:, -1] = -np.inf  # padded pins never set the launch
        for start, end in compiled.level_slices:
            pins = compiled.input_idx[start:end]
            launch = (arrivals[:, pins] + self.net_delays[:, pins]).max(axis=2)
            arrivals[:, compiled.output_idx[start:end]] = \
                launch + self.cell_delays[:, start:end]
        return (arrivals[:, cols] + self.net_delays[:, cols]).max(axis=1)
