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

Names resolve on first access and no driver is imported with the
package: :func:`~repro.experiments.runner.summarise_suite` reads the
suite's summary rows through the engine's store as one
``experiment_suite`` record, so a warm ``experiments --store`` prints
them without NumPy or any driver.
"""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "ExperimentSummary": ".runner",
    "SuiteResult": ".runner",
    "run_all": ".runner",
    "suite_spec": ".runner",
    "summarise_suite": ".runner",
}

# The driver modules load as submodules on first import
# (``from repro.experiments import fig3_delay``).
__all__ = ["fig1_timing", "fig2_staircase", "fig3_delay", "fig4_em_trace",
           "fig5_em_compare", "fig6_pv", "fig7_model", "headline",
           "table_ht_sizes", *_EXPORTS]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
