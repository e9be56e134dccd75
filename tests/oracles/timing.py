"""Interpreted timing reference: one Python walk per cell.

The name-keyed :class:`DelayAnnotation` is the dict form of a die's
delays that :class:`~repro.netlist.compiled.DelayVectors` replaced:
:func:`dict_delay_annotation` builds it the way the package once did
(per-cell intra-die offsets, per-victim droop, tap loading merged name
by name) and :func:`delay_vectors` lowers it by per-name lookups, so
the vectors ``build_delay_annotation`` now builds directly can be
pinned to it bit for bit.

The executable specification of the two timing models the compiled
engine (:class:`repro.netlist.compiled.CompiledTimingEngine`) runs as
array sweeps:

* **Static timing analysis** (:meth:`TimingEngine.static_arrival_times`)
  computes, per net, the worst-case (topological) arrival time — the
  quantity a synthesis tool would report as the critical path.

* **Two-vector (dynamic) timing simulation**
  (:meth:`TimingEngine.two_vector_arrival_times`) computes, per net, the
  time of the *last transition* when the primary inputs switch from a
  "before" vector to an "after" vector.  This is the data-dependent
  delay the paper's clock-glitch measurement observes: a ciphertext bit
  is faulted when the glitched clock period is shorter than the last
  transition arrival at its flip-flop D input (plus setup time).

:func:`two_vector_result` reads one (transition, die) of the compiled
engine back into the same :class:`TwoVectorResult` form, so the two can
be compared net by net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.fpga.design import GoldenDesign
from repro.fpga.power_grid import PowerGrid
from repro.fpga.slices import SliceCoord
from repro.netlist.cells import Cell
from repro.netlist.compiled import (
    DEFAULT_NET_DELAY_PS,
    CompiledNetlist,
    CompiledTimingEngine,
    DelayVectors,
)
from repro.netlist.netlist import Netlist, NetlistError
from repro.variation.inter_die import DieProfile
from repro.variation.intra_die import IntraDieVariation

from .variation import cell_offset_ps


@dataclass
class DelayAnnotation:
    """Per-instance delay annotation for a netlist, keyed by name.

    Attributes
    ----------
    cell_offsets_ps:
        Additional delay per cell instance name (process variation,
        voltage droop, temperature...).  Missing cells get 0.
    net_delays_ps:
        Routing delay per net name.  Missing nets get ``default_net_delay_ps``.
    cell_scale:
        Global multiplicative factor on intrinsic cell delays (inter-die
        process corner; 1.0 = typical).
    default_net_delay_ps:
        Routing delay used for nets without an explicit entry.
    """

    cell_offsets_ps: Dict[str, float] = field(default_factory=dict)
    net_delays_ps: Dict[str, float] = field(default_factory=dict)
    cell_scale: float = 1.0
    default_net_delay_ps: float = DEFAULT_NET_DELAY_PS

    def cell_delay_vector(self, cells: Sequence[Cell]) -> np.ndarray:
        """Total propagation delay of many cells as one float64 vector:
        element ``i`` is ``max(0, intrinsic * cell_scale + offset)`` of
        ``cells[i]``."""
        intrinsic = np.array([cell.intrinsic_delay_ps() for cell in cells])
        offsets = np.array([self.cell_offsets_ps.get(cell.name, 0.0)
                            for cell in cells])
        return np.maximum(0.0, intrinsic * self.cell_scale + offsets)

    def net_delay_vector(self, nets: Sequence[str]) -> np.ndarray:
        """Routing delay of many nets as one float64 vector (the default
        for nets without an entry, clamped at 0)."""
        default = self.default_net_delay_ps
        return np.maximum(0.0, np.array(
            [self.net_delays_ps.get(net, default) for net in nets]
        ))


def delay_vectors(annotation: DelayAnnotation,
                  compiled: Union[CompiledNetlist, Netlist]) -> DelayVectors:
    """Lower a dict annotation into the compiled order of ``compiled``."""
    if isinstance(compiled, Netlist):
        compiled = compiled.compiled()
    cells = [compiled.netlist.cells[name] for name in compiled.comb_cell_names]
    return DelayVectors(annotation.cell_delay_vector(cells),
                        annotation.net_delay_vector(compiled.net_names))


def dict_delay_annotation(design: GoldenDesign,
                          die: Optional[DieProfile] = None,
                          intra_die: Optional[IntraDieVariation] = None,
                          extra_net_delays_ps: Optional[
                              Mapping[str, float]] = None,
                          aggressor_positions: Optional[
                              Mapping[str, SliceCoord]] = None,
                          power_grid: Optional[PowerGrid] = None
                          ) -> DelayAnnotation:
    """The dict annotation of ``design`` on one die, merged name by name.

    Same arguments as :func:`repro.fpga.annotation.build_delay_annotation`.
    Every placed cell gets its per-cell intra-die offset
    (:func:`cell_offset_ps`), then the droop of its PDN tile is added
    (from :meth:`PowerGrid.droop_mv`, unmemoised); each tapped net gets
    its routed delay (0 without one) plus the tap loading.
    """
    net_delays: Dict[str, float] = dict(design.net_delays_ps)
    for net, extra in (extra_net_delays_ps or {}).items():
        net_delays[net] = net_delays.get(net, 0.0) + float(extra)

    cell_offsets: Dict[str, float] = {}
    positions = design.placement.cell_positions
    if intra_die is not None:
        cell_offsets.update(
            (name, cell_offset_ps(intra_die, name, coord))
            for name, coord in positions.items())
    if aggressor_positions and power_grid is not None:
        droop = power_grid.droop_mv(aggressor_positions)
        for name, coord in positions.items():
            offset = (droop.get(power_grid.tile_of(coord), 0.0)
                      * power_grid.delay_sensitivity_ps_per_mv)
            cell_offsets[name] = cell_offsets.get(name, 0.0) + offset
    return DelayAnnotation(
        cell_offsets_ps=cell_offsets,
        net_delays_ps=net_delays,
        cell_scale=die.delay_scale if die is not None else 1.0,
    )


def cell_delay_ps(annotation: DelayAnnotation, cell: Cell) -> float:
    """Total propagation delay of one cell (one element of
    :meth:`DelayAnnotation.cell_delay_vector`)."""
    base = cell.intrinsic_delay_ps() * annotation.cell_scale
    return max(0.0, base + annotation.cell_offsets_ps.get(cell.name, 0.0))


def net_delay_ps(annotation: DelayAnnotation, net: str) -> float:
    """Routing delay of one net (one element of
    :meth:`DelayAnnotation.net_delay_vector`)."""
    return max(0.0, annotation.net_delays_ps.get(
        net, annotation.default_net_delay_ps))


@dataclass
class TwoVectorResult:
    """Result of a two-vector timing simulation.

    Attributes
    ----------
    values_before / values_after:
        Net values for the two input vectors.
    arrival_ps:
        Per-net time of the last transition (None if the net is stable).
    """

    values_before: Dict[str, int]
    values_after: Dict[str, int]
    arrival_ps: Dict[str, Optional[float]]

    def transition_time(self, net: str) -> Optional[float]:
        """Arrival time of the last transition on ``net`` (None if stable)."""
        return self.arrival_ps.get(net)

    def toggled(self, net: str) -> bool:
        """True if ``net`` changes value between the two vectors."""
        return self.values_before.get(net) != self.values_after.get(net)

    def toggling_nets(self) -> List[str]:
        """Nets whose value differs between the two vectors."""
        return [
            net for net in self.values_after
            if self.values_before.get(net) != self.values_after.get(net)
        ]


class TimingEngine:
    """Static and dynamic timing analysis for one netlist.

    Parameters
    ----------
    netlist:
        The netlist to analyse; it must validate.
    annotation:
        Delay annotation: a dict :class:`DelayAnnotation` (defaults to
        intrinsic cell delays and a uniform routing delay), or a DUT's
        :class:`DelayVectors`, read per name through the compiled order.
    input_arrival_ps:
        Arrival time of the primary inputs and register outputs (models
        the clock-to-Q delay of the launching registers).
    """

    def __init__(self, netlist: Netlist,
                 annotation: Union[DelayAnnotation, DelayVectors,
                                   None] = None,
                 input_arrival_ps: float = 0.0):
        netlist.validate()
        self.netlist = netlist
        if isinstance(annotation, DelayVectors):
            compiled = netlist.compiled()
            cell_delays = dict(zip(compiled.comb_cell_names,
                                   annotation.cell_delays_ps.tolist()))
            net_delays = dict(zip(compiled.net_names,
                                  annotation.net_delays_ps.tolist()))
            self._cell_delay = lambda cell: cell_delays[cell.name]
            self._net_delay = net_delays.__getitem__
        else:
            dict_annotation = annotation or DelayAnnotation()
            self._cell_delay = lambda cell: cell_delay_ps(dict_annotation,
                                                          cell)
            self._net_delay = lambda net: net_delay_ps(dict_annotation, net)
        self.input_arrival_ps = float(input_arrival_ps)
        self._topo = netlist.topological_order()

    # -- static timing analysis ------------------------------------------

    def static_arrival_times(self) -> Dict[str, float]:
        """Worst-case arrival time per net, ignoring data dependence."""
        arrivals: Dict[str, float] = {}
        for net in self.netlist.inputs:
            arrivals[net] = self.input_arrival_ps
        for cell in self.netlist.cells.values():
            if cell.is_sequential or cell.is_constant:
                arrivals[cell.output] = self.input_arrival_ps

        for cell in self._topo:
            input_arrivals = [
                arrivals.get(net, self.input_arrival_ps)
                + self._net_delay(net)
                for net in cell.inputs
            ]
            arrivals[cell.output] = (
                max(input_arrivals) + self._cell_delay(cell)
            )
        return arrivals

    def critical_path_ps(self, nets: Optional[Iterable[str]] = None) -> float:
        """Worst-case arrival over ``nets`` (default: DFF D inputs, else outputs)."""
        arrivals = self.static_arrival_times()
        if nets is None:
            registers = self.netlist.register_cells()
            if registers:
                nets = [cell.inputs[0] for cell in registers]
            else:
                nets = list(self.netlist.outputs)
        candidates = [
            arrivals[n] + self._net_delay(n) for n in nets if n in arrivals
        ]
        if not candidates:
            raise NetlistError("no observable nets for critical path computation")
        return max(candidates)

    # -- two-vector dynamic timing ------------------------------------------

    def two_vector_arrival_times(self, inputs_before: Mapping[str, int],
                                 inputs_after: Mapping[str, int]
                                 ) -> TwoVectorResult:
        """Simulate the transition ``inputs_before -> inputs_after``.

        The last-transition model is used: a cell output transitions only
        if its steady-state value differs between the two vectors, and the
        transition is assumed to happen after the latest transition among
        its toggling inputs plus the cell delay.  Hazard pulses on stable
        outputs are not modelled; this matches the granularity the
        glitch-step measurement can observe (35 ps steps over ~100 ps
        gate delays).
        """
        values_before = self.netlist.evaluate(dict(inputs_before))
        values_after = self.netlist.evaluate(dict(inputs_after))

        arrivals: Dict[str, Optional[float]] = {}
        for net in self.netlist.inputs:
            if values_before.get(net) != values_after.get(net):
                arrivals[net] = self.input_arrival_ps
            else:
                arrivals[net] = None
        for cell in self.netlist.cells.values():
            if cell.is_sequential or cell.is_constant:
                arrivals[cell.output] = None

        for cell in self._topo:
            out_net = cell.output
            if values_before[out_net] == values_after[out_net]:
                arrivals[out_net] = None
                continue
            toggling_inputs = [
                (net, arrivals.get(net))
                for net in cell.inputs
                if values_before.get(net) != values_after.get(net)
                and arrivals.get(net) is not None
            ]
            if not toggling_inputs:
                # Output toggles although no input toggles: can only happen
                # if an input net is missing from the vectors; treat as a
                # transition launched at the clock edge.
                launch = self.input_arrival_ps
            else:
                launch = max(
                    arrival + self._net_delay(net)
                    for net, arrival in toggling_inputs
                )
            arrivals[out_net] = launch + self._cell_delay(cell)

        return TwoVectorResult(
            values_before=values_before,
            values_after=values_after,
            arrival_ps=arrivals,
        )

    def endpoint_delays(self, result: TwoVectorResult,
                        endpoint_nets: Sequence[str]) -> Dict[str, Optional[float]]:
        """Arrival time at each endpoint net, including its routing delay.

        ``None`` means the endpoint is stable for this input transition
        (it cannot be faulted however short the clock period, apart from
        hold issues which are out of scope).
        """
        delays: Dict[str, Optional[float]] = {}
        for net in endpoint_nets:
            arrival = result.arrival_ps.get(net)
            if arrival is None:
                delays[net] = None
            else:
                delays[net] = arrival + self._net_delay(net)
        return delays


def two_vector_result(engine: CompiledTimingEngine,
                      inputs_before: Mapping[str, int],
                      inputs_after: Mapping[str, int],
                      die: int = 0) -> TwoVectorResult:
    """One transition on one die of ``engine``, as a :class:`TwoVectorResult`.

    Drop-in for :meth:`TimingEngine.two_vector_arrival_times`: the
    compiled engine's batched matrices read back for a single
    (transition, die), NaN arrivals becoming ``None``.
    """
    input_nets = list(inputs_before)
    if set(input_nets) != set(inputs_after):
        raise NetlistError(
            "before and after vectors must drive the same nets"
        )
    before_rows = np.array(
        [[int(inputs_before[n]) & 1 for n in input_nets]], dtype=np.uint8
    )
    after_rows = np.array(
        [[int(inputs_after[n]) & 1 for n in input_nets]], dtype=np.uint8
    )
    values_before, values_after, arrivals = engine.two_vector_arrivals(
        before_rows, after_rows, input_nets
    )
    compiled = engine.compiled
    known = set(compiled.net_index)
    arrival_ps: Dict[str, Optional[float]] = {}
    for net, col in compiled.net_index.items():
        value = float(arrivals[0, die, col])
        arrival_ps[net] = None if np.isnan(value) else value
    before_dict = {net: int(values_before[0, col])
                   for net, col in compiled.net_index.items()}
    after_dict = {net: int(values_after[0, col])
                  for net, col in compiled.net_index.items()}
    for net in input_nets:
        if net not in known:
            before_dict[net] = int(inputs_before[net]) & 1
            after_dict[net] = int(inputs_after[net]) & 1
    return TwoVectorResult(
        values_before=before_dict,
        values_after=after_dict,
        arrival_ps=arrival_ps,
    )
