"""Interpreted timing reference: one Python walk per cell.

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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.netlist.compiled import CompiledTimingEngine
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.timing import DelayAnnotation


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
        Delay annotation; defaults to intrinsic cell delays and a uniform
        routing delay.
    input_arrival_ps:
        Arrival time of the primary inputs and register outputs (models
        the clock-to-Q delay of the launching registers).
    """

    def __init__(self, netlist: Netlist,
                 annotation: Optional[DelayAnnotation] = None,
                 input_arrival_ps: float = 0.0):
        netlist.validate()
        self.netlist = netlist
        self.annotation = annotation or DelayAnnotation()
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
                + self.annotation.net_delay_ps(net)
                for net in cell.inputs
            ]
            arrivals[cell.output] = (
                max(input_arrivals) + self.annotation.cell_delay_ps(cell)
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
            arrivals[n] + self.annotation.net_delay_ps(n) for n in nets if n in arrivals
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
                    arrival + self.annotation.net_delay_ps(net)
                    for net, arrival in toggling_inputs
                )
            arrivals[out_net] = launch + self.annotation.cell_delay_ps(cell)

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
                delays[net] = arrival + self.annotation.net_delay_ps(net)
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
