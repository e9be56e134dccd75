"""Run the complete experiment suite and summarise paper-vs-measured.

The suite is one campaign, :func:`suite_spec`: its sizes are the
paper's (8 dies, 50 (P, K) pairs, 10 delay repetitions) or, with
``quick``, a reduced campaign on the same code paths.  ``run_all`` runs
every driver on one :class:`~repro.campaigns.engine.CampaignEngine`
over it: the engine keys, reads through and scores the Sec. V
population that Fig. 6 and the headline share, and its one platform
runs every other figure/table driver (so the golden design and the
trojan insertions are built once).  It returns a dictionary of summary
rows — the same content EXPERIMENTS.md records and the CLI prints.
:func:`summarise_suite` returns only those rows, read through the
store as one ``experiment_suite`` record, so a warm ``experiments
--store`` runs (and imports) no driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..campaigns.engine import CampaignEngine
from ..campaigns.spec import CampaignSpec
from ..core.report import format_table, percentage
from ..store import ArtifactStore, spec_content_fragment

#: Version of the rows an ``experiment_suite`` record holds; its key
#: includes it.  Bump it with any change to a driver or to the row
#: format that changes a printed row, so a store written before the
#: change reruns the suite instead of printing stale numbers
#: (``tests/test_experiments.py`` pins the quick record's digest).
SUITE_ROWS_VERSION = 1


@dataclass
class ExperimentSummary:
    """One line of the paper-vs-measured summary."""

    experiment: str
    paper_claim: str
    measured: str
    matches_shape: bool


@dataclass
class SuiteResult:
    """All experiment results plus the flat summary table."""

    summaries: List[ExperimentSummary]
    results: Dict[str, object] = field(default_factory=dict)

    def summary_table(self) -> str:
        rows = [[s.experiment, s.paper_claim, s.measured,
                 "yes" if s.matches_shape else "NO"]
                for s in self.summaries]
        return format_table(
            ["experiment", "paper", "measured (this reproduction)", "shape ok"],
            rows,
        )

    def all_shapes_match(self) -> bool:
        return all(s.matches_shape for s in self.summaries)


def suite_spec(quick: bool = False, seed: Optional[int] = None
               ) -> CampaignSpec:
    """The paper suite's campaign: HT1-HT3 scored with the
    local-maxima-sum metric on one die population, with the paper's
    fixed plaintext and key.

    The paper's sizes are 8 dies, 50 (P, K) pairs and 10 delay
    repetitions; ``quick`` keeps every code path and shrinks them to
    4 dies, 4 pairs and 3 repetitions.  ``seed`` (default 2015) seeds
    every die, noise stream and pair.
    """
    dies, pairs, repetitions = (4, 4, 3) if quick else (8, 50, 10)
    return CampaignSpec(
        name="experiments",
        trojans=("HT1", "HT2", "HT3"),
        die_counts=(dies,),
        metrics=("local_maxima_sum",),
        num_pk_pairs=pairs,
        delay_repetitions=repetitions,
        **({} if seed is None else {"seed": seed}),
    )


def run_all(spec: Optional[CampaignSpec] = None,
            store: Union[None, ArtifactStore, str, Path] = None
            ) -> SuiteResult:
    """Run every experiment driver on one engine over ``spec`` (the
    quick :func:`suite_spec` by default) and build the summary.

    ``store`` attaches a content-addressed artifact store: the
    expensive shared population study then reads through it, under the
    same key a ``campaign run`` of that geometry uses.
    """
    engine = CampaignEngine(spec or suite_spec(quick=True), store=store)
    return _run_drivers(engine)


def summarise_suite(spec: CampaignSpec,
                    store: Union[None, ArtifactStore, str, Path] = None
                    ) -> SuiteResult:
    """The summary rows of the suite over ``spec``, without the
    per-figure results.

    With a store they are one ``experiment_suite`` record: a hit
    returns the rows as stored, and a miss runs every driver
    (:func:`run_all`'s work) and stores them.
    """
    engine = CampaignEngine(spec, store=store)
    summaries = engine._read_through(
        "experiment_suite", SUITE_ROWS_VERSION,
        {"rows_version": SUITE_ROWS_VERSION,
         "spec": spec_content_fragment(spec.to_dict())},
        compute=lambda: _run_drivers(engine).summaries,
        pack=lambda rows: rows,
        unpack=lambda payload: [ExperimentSummary(**row)
                                for row in payload],
        meta=lambda rows: {"campaign": spec.name, "rows": len(rows)},
    )
    return SuiteResult(summaries=summaries)


def _run_drivers(engine: CampaignEngine) -> SuiteResult:
    """Every figure/table driver on ``engine`` and its one platform."""
    # The drivers load NumPy and the simulation layers; a stored suite
    # record is printed without them.
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

    summaries: List[ExperimentSummary] = []
    results: Dict[str, object] = {}

    # FIG1 / EQ1 ------------------------------------------------------------
    r1 = fig1_timing.run(engine)
    results["fig1"] = r1
    summaries.append(ExperimentSummary(
        experiment="Fig.1/Eq.1 timing constraint",
        paper_claim="setup violated once Tclk drops below the path requirement",
        measured=(f"critical path {r1.critical_path_ps:.0f} ps, required "
                  f"{r1.required_period_ps:.0f} ps, nominal slack "
                  f"{r1.nominal_slack_ps:.0f} ps"),
        matches_shape=(r1.nominal_slack_ps > 0
                       and r1.first_violating_period_ps() is not None),
    ))

    # FIG2 -------------------------------------------------------------------
    r2 = fig2_staircase.run(engine)
    results["fig2"] = r2
    golden_first = r2.golden_first_fault_step()
    infected_first = r2.infected_first_fault_step()
    summaries.append(ExperimentSummary(
        experiment="Fig.2 fault staircase",
        paper_claim="shrinking the glitch period faults more and more bits; "
                    "a HT shifts the onset",
        measured=(f"first golden fault at step {golden_first}, "
                  f"infected at step {infected_first}"),
        matches_shape=(golden_first is not None and infected_first is not None
                       and infected_first <= golden_first),
    ))

    # FIG3 -------------------------------------------------------------------
    r3 = fig3_delay.run(engine)
    results["fig3"] = r3
    summaries.append(ExperimentSummary(
        experiment="Fig.3 per-bit delay differences",
        paper_claim="clean curves stay at the noise floor (<~350 ps); both HTs "
                    "shift some bits by up to ~1.4 ns",
        measured=(f"clean max {r3.clean_max_ps():.0f} ps, infected max "
                  f"{r3.infected_max_ps():.0f} ps "
                  f"(ratio {r3.separation_ratio():.1f}x)"),
        matches_shape=r3.separation_ratio() > 2.0,
    ))

    # FIG4 -------------------------------------------------------------------
    r4 = fig4_em_trace.run(engine)
    results["fig4"] = r4
    summaries.append(ExperimentSummary(
        experiment="Fig.4 averaged EM trace",
        paper_claim="~3000 samples per encryption, all 10 rounds visible",
        measured=(f"{r4.num_samples} samples, {r4.round_burst_count} bursts, "
                  f"peak {r4.peak_amplitude:.0f}"),
        matches_shape=r4.rounds_visible() and 2000 <= r4.num_samples <= 4000,
    ))

    # FIG5 -------------------------------------------------------------------
    r5 = fig5_em_compare.run(engine)
    results["fig5"] = r5
    summaries.append(ExperimentSummary(
        experiment="Fig.5 same-die trace comparison",
        paper_claim="two genuine traces nearly identical; infected trace "
                    "departs at specific samples",
        measured=(f"genuine residual {r5.genuine_vs_genuine_max:.0f}, infected "
                  f"difference {r5.genuine_vs_infected_max:.0f} "
                  f"(contrast {r5.contrast():.1f}x), detected={r5.detected}"),
        matches_shape=r5.detected and r5.contrast() > 1.5,
    ))

    # FIG6 -------------------------------------------------------------------
    # Fig. 6 and the headline share the engine's one Sec. V population,
    # acquired once and read through the store when one is attached.
    r6 = fig6_pv.run(engine)
    results["fig6"] = r6
    above = {name: r6.exceeds_pv_envelope(name) for name in r6.trojan_names}
    summaries.append(ExperimentSummary(
        experiment="Fig.6 inter-die differences",
        paper_claim="HT >= 1% rises above the process-variation envelope at "
                    "points of interest",
        measured=(f"PV envelope {r6.golden_envelope():.0f}; dies above it: "
                  + ", ".join(f"{k}={v}" for k, v in above.items())),
        matches_shape=any(count > 0 for name, count in above.items()
                          if name != "HT1"),
    ))

    # FIG7 -------------------------------------------------------------------
    r7 = fig7_model.run(engine)
    results["fig7"] = r7
    summaries.append(ExperimentSummary(
        experiment="Fig.7/Eq.5 Gaussian model",
        paper_claim="FN = FP = 1/2 - 1/2 erf(mu / 2 sigma sqrt(2))",
        measured=(f"mu={r7.mu:.0f}, sigma={r7.sigma:.0f}, analytic FN "
                  f"{percentage(r7.analytic_false_negative)}, empirical "
                  f"{percentage(r7.empirical_false_negative)}"),
        matches_shape=abs(r7.analytic_false_negative
                          - r7.empirical_false_negative) < 0.05,
    ))

    # TAB-HT ------------------------------------------------------------------
    rt = table_ht_sizes.run(engine)
    results["table_ht_sizes"] = rt
    summaries.append(ExperimentSummary(
        experiment="Trojan resource table",
        paper_claim="HT sizes 0.5/1.0/1.7 % of AES (0.19/0.36 % of FPGA for "
                    "HTcomb/HTseq)",
        measured=", ".join(
            f"{row.trojan_name}={percentage(row.fraction_of_aes)}"
            for row in rt.rows
        ),
        matches_shape=rt.ordering_matches_paper(),
    ))

    # HEADLINE ---------------------------------------------------------------
    rh = headline.run(engine)
    results["headline"] = rh
    summaries.append(ExperimentSummary(
        experiment="Headline FN vs HT size",
        paper_claim="FN 26/17/5 % for 0.5/1.0/1.7 % HTs; >95 % detection "
                    "for HT >= 1.7 %",
        measured=", ".join(
            f"{row.trojan_name}:{percentage(row.false_negative_rate)}"
            for row in rh.rows
        ) + f"; largest-HT detection {percentage(rh.largest_trojan_detection())}",
        matches_shape=(rh.is_monotone_decreasing()
                       and rh.largest_trojan_detection() >= 0.90),
    ))

    return SuiteResult(summaries=summaries, results=results)
