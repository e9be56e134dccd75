#!/usr/bin/env python3
"""Regenerate every figure and table of the paper and archive the results.

Runs the full experiment suite (:mod:`repro.experiments.runner`), prints
the paper-vs-measured summary table, and saves:

* the summary and per-experiment key numbers as JSON
  (``results/experiment_summary.json``),
* the Fig. 4/5/6 trace sets as ``.npz`` archives so they can be plotted
  or re-analysed offline without re-running the simulation.

Run with::

    python examples/reproduce_paper_figures.py [--paper] [--out results/]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import ExperimentConfig, run_all
from repro.io import save_result, save_traces


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true",
                        help="use the paper's full campaign sizes (slower)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory for archived results")
    args = parser.parse_args()

    config = ExperimentConfig.paper() if args.paper else ExperimentConfig.fast()
    suite = run_all(config)

    print(suite.summary_table())
    print()
    print("All experiment shapes match the paper:" ,
          "YES" if suite.all_shapes_match() else "NO")

    args.out.mkdir(parents=True, exist_ok=True)
    summary_payload = {
        "profile": "paper" if args.paper else "fast",
        "summaries": [
            {
                "experiment": summary.experiment,
                "paper": summary.paper_claim,
                "measured": summary.measured,
                "matches_shape": summary.matches_shape,
            }
            for summary in suite.summaries
        ],
        "headline_false_negative_rates":
            suite.results["headline"].false_negative_rates(),
        "trojan_sizes": {
            row.trojan_name: row.fraction_of_aes
            for row in suite.results["table_ht_sizes"].rows
        },
    }
    summary_path = save_result(args.out / "experiment_summary", summary_payload)
    print(f"\nSummary written to {summary_path}")

    fig4 = suite.results["fig4"]
    save_traces(args.out / "fig4_single_encryption", [fig4.trace])
    fig5 = suite.results["fig5"]
    save_traces(
        args.out / "fig5_same_die",
        list(fig5.study.golden_traces) + list(fig5.study.infected_traces.values()),
    )
    golden_population, _ = suite.results["headline"].study.tensors.to_traces()
    save_traces(args.out / "fig6_golden_population", golden_population)
    print(f"Trace archives written to {args.out}/")


if __name__ == "__main__":
    main()
