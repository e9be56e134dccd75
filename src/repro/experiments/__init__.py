"""Experiment drivers: one module per figure/table of the paper.

==================  ==========================================================
Module              Paper artefact
==================  ==========================================================
``fig1_timing``     Fig. 1 / Eq. (1): synchronous timing constraint
``fig2_staircase``  Fig. 2: faulted bits vs glitch step
``fig3_delay``      Fig. 3: per-bit delay differences, clean vs infected
``fig4_em_trace``   Fig. 4: averaged EM trace of one encryption
``fig5_em_compare`` Fig. 5: same-die genuine vs infected traces
``fig6_pv``         Fig. 6: inter-die differences vs the mean golden trace
``fig7_model``      Fig. 7 / Eq. (5): two-Gaussian false-negative model
``table_ht_sizes``  Sec. II-B / V-A: trojan resource footprints
``headline``        Abstract / Sec. V-B: FN rate vs trojan size
``runner``          The suite's campaign (``suite_spec``); runs the full
                    suite and summarises paper-vs-measured
==================  ==========================================================

Every driver is ``run(engine, ...)``: it reads the campaign's sizes,
seed and stimulus from ``engine.spec`` and runs on ``engine.platform``
(or, for Fig. 6 and the headline, the engine's Sec. V population
study), so the whole suite is one :class:`~repro.campaigns.spec.CampaignSpec`
and one platform.
"""

from . import (
    fig1_timing,
    fig2_staircase,
    fig3_delay,
    fig4_em_trace,
    fig5_em_compare,
    fig6_pv,
    fig7_model,
    headline,
    table_ht_sizes,
)
from .runner import ExperimentSummary, SuiteResult, run_all, suite_spec

__all__ = [
    "fig1_timing",
    "fig2_staircase",
    "fig3_delay",
    "fig4_em_trace",
    "fig5_em_compare",
    "fig6_pv",
    "fig7_model",
    "headline",
    "table_ht_sizes",
    "ExperimentSummary",
    "SuiteResult",
    "run_all",
    "suite_spec",
]
