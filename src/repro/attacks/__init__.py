"""Fault-injection attack campaigns.

The attack side of the paper's platform: glitch-parameter grids swept
over die populations (:mod:`repro.attacks.glitch_grid`), producing
faulted-ciphertext populations that the campaign engine scores as a
detection metric (``fault_coverage``) and the DFA analyzer
(:mod:`repro.analysis.dfa`) turns into recovered last-round key bytes.
"""

from .glitch_grid import (
    GlitchGrid,
    GlitchGridPoint,
    device_fault_coverages,
    recover_from_sweep,
    synthesise_faulted_sweep,
)

__all__ = [
    "GlitchGrid",
    "GlitchGridPoint",
    "device_fault_coverages",
    "recover_from_sweep",
    "synthesise_faulted_sweep",
]
