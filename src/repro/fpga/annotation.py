"""Construction of timing annotations for a placed design on a given die.

This module is the bridge between the physical models (placement,
routing, process variation, power grid, trojan loading) and the netlist
timing engine: it builds the
:class:`~repro.netlist.compiled.DelayVectors` describing how fast every
combinational cell and net of a design is *on one particular die*,
optionally including the parasitic effects of an inserted trojan.  Both
vectors start from per-design constants in compiled order
(:attr:`~repro.fpga.design.GoldenDesign.host_delays`), so the timing
engine stacks them as they are and no name is looked up per die.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..netlist.compiled import DelayVectors
from ..variation.inter_die import DieProfile
from ..variation.intra_die import IntraDieVariation
from .design import GoldenDesign
from .power_grid import PowerGrid
from .slices import SliceCoord


def build_delay_annotation(design: GoldenDesign,
                           die: Optional[DieProfile] = None,
                           intra_die: Optional[IntraDieVariation] = None,
                           extra_net_delays_ps: Optional[Mapping[str, float]] = None,
                           aggressor_positions: Optional[Mapping[str, SliceCoord]] = None,
                           power_grid: Optional[PowerGrid] = None
                           ) -> DelayVectors:
    """Build the delay annotation of ``design`` on one die.

    Parameters
    ----------
    design:
        The placed and routed golden design.
    die:
        Inter-die profile; its ``delay_scale`` multiplies every cell
        delay.  ``None`` means a nominal (typical) die.
    intra_die:
        Intra-die variation field of that die; adds a per-cell offset.
        ``None`` disables intra-die variation.
    extra_net_delays_ps:
        Additional routing delay per net, e.g. the capacitive loading a
        trojan adds to tapped nets.  Added to the routed delay (to 0 for
        a net without one); nets outside the host netlist are ignored.
    aggressor_positions:
        Cell positions of an inserted trojan.  When given together with
        ``power_grid``, the IR-drop they cause adds a delay offset to the
        victim (golden) cells sharing the affected PDN tiles.
    power_grid:
        The PDN model used for the droop computation.

    Returns
    -------
    Read-only vectors: a cell's delay is ``max(0, intrinsic * die scale
    + (intra-die offset + droop))`` and a net's ``max(0, routed + tap
    loading)``.  The inputs are not modified.
    """
    host = design.host_delays
    offsets = (intra_die.offsets_for(host.comb_positions)
               if intra_die is not None else 0.0)
    if aggressor_positions and power_grid is not None:
        offsets = offsets + power_grid.victim_delay_offsets_ps(
            host.comb_positions, aggressor_positions)
    scale = die.delay_scale if die is not None else 1.0
    cell_delays = np.maximum(0.0, host.intrinsic_ps * scale + offsets)
    cell_delays.flags.writeable = False

    net_delays = host.routed_ps
    net_index = design.netlist.compiled().net_index
    taps = [(net_index[net], design.net_delays_ps.get(net, 0.0), float(extra))
            for net, extra in (extra_net_delays_ps or {}).items()
            if net in net_index]
    if taps:
        columns, routed, extras = zip(*taps)
        net_delays = net_delays.copy()
        net_delays[list(columns)] = np.maximum(0.0, np.add(routed, extras))
        net_delays.flags.writeable = False
    return DelayVectors(cell_delays, net_delays)
