"""Routing-delay model.

A full FPGA router is out of scope (and irrelevant to the detection
algorithms); what matters is that every net gets a routing delay that

* grows with the placement distance between its driver and loads,
* grows with its fan-out (more switch-box hops, more capacitance),
* stays identical between the genuine and infected designs for all nets
  of the genuine circuit (the paper's frozen-placement-and-routing
  constraint), except for the extra load a trojan adds to tapped nets.

:class:`Router` computes the per-net delay map a design keeps
(``GoldenDesign.net_delays_ps``), from which every die's
:class:`~repro.netlist.compiled.DelayVectors` starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..netlist.netlist import Netlist
from .placement import Placement, net_endpoints
from .slices import manhattan_distance

#: Delay of the local (intra-slice) portion of every route, in ps.
BASE_NET_DELAY_PS = 100.0
#: Additional delay per slice of Manhattan distance, in ps.
DELAY_PER_HOP_PS = 35.0
#: Additional delay per extra load (fan-out beyond the first), in ps.
DELAY_PER_LOAD_PS = 15.0


@dataclass
class RoutedNet:
    """Routing summary for one net."""

    net: str
    length_hops: int
    fanout: int
    delay_ps: float


class Router:
    """Distance/fan-out based net-delay estimator.

    Parameters
    ----------
    base_delay_ps, delay_per_hop_ps, delay_per_load_ps:
        Model coefficients; defaults approximate a 65 nm FPGA
        interconnect where a cross-chip route costs a few nanoseconds.
    """

    def __init__(self, base_delay_ps: float = BASE_NET_DELAY_PS,
                 delay_per_hop_ps: float = DELAY_PER_HOP_PS,
                 delay_per_load_ps: float = DELAY_PER_LOAD_PS):
        if min(base_delay_ps, delay_per_hop_ps, delay_per_load_ps) < 0:
            raise ValueError("routing delay coefficients must be non-negative")
        self.base_delay_ps = base_delay_ps
        self.delay_per_hop_ps = delay_per_hop_ps
        self.delay_per_load_ps = delay_per_load_ps

    def route_net(self, netlist: Netlist, placement: Placement,
                  net: str) -> RoutedNet:
        """Estimate the routing of a single net."""
        driver_pos, load_positions = net_endpoints(netlist, placement, net)
        if driver_pos is None or not load_positions:
            # Primary input or unloaded net: local route only.
            length = 0
        else:
            length = max(
                manhattan_distance(driver_pos, load) for load in load_positions
            )
        fanout = max(1, len(load_positions))
        delay = (self.base_delay_ps
                 + self.delay_per_hop_ps * length
                 + self.delay_per_load_ps * (fanout - 1))
        return RoutedNet(net=net, length_hops=length, fanout=fanout, delay_ps=delay)

    def route(self, netlist: Netlist, placement: Placement) -> Dict[str, RoutedNet]:
        """Route every net of ``netlist``; returns a per-net summary."""
        return {
            net: self.route_net(netlist, placement, net)
            for net in sorted(netlist.nets())
        }

    def net_delays(self, netlist: Netlist, placement: Placement
                   ) -> Dict[str, float]:
        """Per-net routing delay in ps (the shape the timing engine expects)."""
        return {net: routed.delay_ps
                for net, routed in self.route(netlist, placement).items()}


def added_tap_delay_ps(extra_loads: int, delay_per_load_ps: float = DELAY_PER_LOAD_PS,
                       per_tap_route_ps: float = 60.0) -> float:
    """Extra delay a net suffers when a trojan taps it.

    Tapping a net adds input-pin capacitance and usually a short stub
    route to the trojan slice.  The model is linear in the number of
    taps; the default per-tap cost is a fraction of a LUT delay, which
    keeps the induced shift in the same order as the paper's observed
    per-bit delay differences (hundreds of ps for directly loaded nets).
    """
    if extra_loads < 0:
        raise ValueError("extra_loads must be non-negative")
    return extra_loads * (delay_per_load_ps + per_tap_route_ps)
