"""Delay annotation of structural netlists.

A :class:`DelayAnnotation` combines the intrinsic cell delay, a per-cell
offset (intra-die process variation, IR-drop from a nearby trojan...)
and a per-net routing delay.  It is deliberately a plain value object so
that the FPGA placement/variation code can construct it without the
timing engine knowing anything about dies or trojans; the timing engine
itself (static critical path and two-vector last-transition arrivals
for every (stimulus pair, die) at once) is
:class:`~repro.netlist.compiled.CompiledTimingEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from .cells import Cell

#: Default routing delay per net, in picoseconds (a short intra-slice route).
DEFAULT_NET_DELAY_PS = 120.0


@dataclass
class DelayAnnotation:
    """Per-instance delay annotation for a netlist.

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

    def cell_delay_ps(self, cell: Cell) -> float:
        """Total propagation delay of ``cell``."""
        base = cell.intrinsic_delay_ps() * self.cell_scale
        return max(0.0, base + self.cell_offsets_ps.get(cell.name, 0.0))

    def net_delay_ps(self, net: str) -> float:
        """Routing delay of ``net``."""
        return max(0.0, self.net_delays_ps.get(net, self.default_net_delay_ps))

    def cell_delay_vector(self, cells: Sequence[Cell]) -> np.ndarray:
        """:meth:`cell_delay_ps` for many cells as one float64 vector.

        Element ``i`` is bit-identical to ``cell_delay_ps(cells[i])``
        (the same multiply/add/clamp applied elementwise); the compiled
        timing engine gathers from this vector instead of calling the
        scalar accessor per cell per stimulus.
        """
        intrinsic = np.array([cell.intrinsic_delay_ps() for cell in cells])
        offsets = np.array([self.cell_offsets_ps.get(cell.name, 0.0)
                            for cell in cells])
        return np.maximum(0.0, intrinsic * self.cell_scale + offsets)

    def net_delay_vector(self, nets: Sequence[str]) -> np.ndarray:
        """:meth:`net_delay_ps` for many nets as one float64 vector."""
        default = self.default_net_delay_ps
        return np.maximum(0.0, np.array(
            [self.net_delays_ps.get(net, default) for net in nets]
        ))

    def copy(self) -> "DelayAnnotation":
        """Deep-enough copy (dictionaries are copied)."""
        return DelayAnnotation(
            cell_offsets_ps=dict(self.cell_offsets_ps),
            net_delays_ps=dict(self.net_delays_ps),
            cell_scale=self.cell_scale,
            default_net_delay_ps=self.default_net_delay_ps,
        )

    def add_cell_offset(self, cell_name: str, offset_ps: float) -> None:
        """Accumulate an extra delay on one cell instance."""
        self.cell_offsets_ps[cell_name] = (
            self.cell_offsets_ps.get(cell_name, 0.0) + offset_ps
        )

    def add_net_delay(self, net: str, extra_ps: float) -> None:
        """Accumulate extra routing delay on one net."""
        current = self.net_delays_ps.get(net, self.default_net_delay_ps)
        self.net_delays_ps[net] = current + extra_ps
