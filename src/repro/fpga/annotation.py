"""Construction of timing annotations for a placed design on a given die.

This module is the bridge between the physical models (placement,
routing, process variation, power grid, trojan loading) and the netlist
timing engine: it assembles a
:class:`~repro.netlist.timing.DelayAnnotation` describing how fast every
cell and net of a design is *on one particular die*, optionally
including the parasitic effects of an inserted trojan.

Keeping this as a free function over plain mappings (rather than a
method of the design or trojan classes) avoids circular dependencies and
makes the individual contributions easy to test in isolation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..netlist.timing import DelayAnnotation
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
                           ) -> DelayAnnotation:
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
        trojan adds to tapped nets.  Applied on top of the routed delays.
    aggressor_positions:
        Cell positions of an inserted trojan.  When given together with
        ``power_grid``, the IR-drop they cause adds a delay offset to the
        victim (golden) cells sharing the affected PDN tiles.
    power_grid:
        The PDN model used for the droop computation.

    Returns
    -------
    A fresh :class:`DelayAnnotation`; the inputs are not modified.
    """
    net_delays: Dict[str, float] = dict(design.net_delays_ps)
    if extra_net_delays_ps:
        for net, extra in extra_net_delays_ps.items():
            net_delays[net] = net_delays.get(net, 0.0) + float(extra)

    cell_offsets: Dict[str, float] = {}
    positions = design.placement.cell_positions
    if intra_die is not None:
        cell_offsets.update(intra_die.offsets_for(positions))

    if aggressor_positions and power_grid is not None:
        droop_offsets = power_grid.victim_delay_offsets_ps(
            victim_positions=positions,
            aggressor_positions=aggressor_positions,
        )
        for cell_name, offset in droop_offsets.items():
            cell_offsets[cell_name] = cell_offsets.get(cell_name, 0.0) + offset

    return DelayAnnotation(
        cell_offsets_ps=cell_offsets,
        net_delays_ps=net_delays,
        cell_scale=die.delay_scale if die is not None else 1.0,
    )
