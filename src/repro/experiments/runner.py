"""Run the complete experiment suite and summarise paper-vs-measured.

``run_all`` is a campaign client: one
:class:`~repro.campaigns.engine.CampaignEngine` over the config's
:meth:`~repro.experiments.config.ExperimentConfig.campaign_spec` keys,
reads through and scores the Sec. V population that Fig. 6 and the
headline share, and its platform runs every other figure/table driver
(so the golden design and the trojan insertions are built once).  It
returns a dictionary of summary rows — the same content EXPERIMENTS.md
records and the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..campaigns.engine import CampaignEngine
from ..core.report import format_table, percentage
from ..store import Store
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
from .config import ExperimentConfig


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


def run_all(config: Optional[ExperimentConfig] = None,
            store: Union[None, Store, str, Path] = None
            ) -> SuiteResult:
    """Run every experiment driver and build the summary.

    ``store`` attaches a content-addressed artifact store: the
    expensive shared population study then reads through it, under the
    same key a ``campaign run`` of that geometry uses.
    """
    config = config or ExperimentConfig.fast()
    engine = CampaignEngine(config.campaign_spec(), store=store)
    (cell,) = engine.spec.grid()
    platform = engine.platform_for(cell)
    summaries: List[ExperimentSummary] = []
    results: Dict[str, object] = {}

    # FIG1 / EQ1 ------------------------------------------------------------
    r1 = fig1_timing.run(config, platform)
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
    r2 = fig2_staircase.run(config, platform)
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
    r3 = fig3_delay.run(config, platform)
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
    r4 = fig4_em_trace.run(config, platform)
    results["fig4"] = r4
    summaries.append(ExperimentSummary(
        experiment="Fig.4 averaged EM trace",
        paper_claim="~3000 samples per encryption, all 10 rounds visible",
        measured=(f"{r4.num_samples} samples, {r4.round_burst_count} bursts, "
                  f"peak {r4.peak_amplitude:.0f}"),
        matches_shape=r4.rounds_visible() and 2000 <= r4.num_samples <= 4000,
    ))

    # FIG5 -------------------------------------------------------------------
    r5 = fig5_em_compare.run(config, platform)
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
    r6 = fig6_pv.run(config, engine)
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
    r7 = fig7_model.run(config, platform)
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
    rt = table_ht_sizes.run(config, platform)
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
    rh = headline.run(config, engine)
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
