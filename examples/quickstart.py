#!/usr/bin/env python3
"""Quickstart: detect a dormant hardware trojan with both side channels.

This example walks the shortest path through the library:

1. describe the paper's Sec. V campaign (HT1/HT2/HT3 over a die
   population) and take its detection platform (golden AES design, die
   population, simulated measurement benches) from a campaign engine,
2. run the delay-based detection of Sec. III on one die,
3. run the inter-die EM detection of Sec. V on the HT1/HT2/HT3 size
   sweep and print the false-negative rates the paper's headline result
   is about.

Run it with::

    python examples/quickstart.py [--paper]

The default uses a reduced campaign (a few seconds); ``--paper`` uses
the paper's campaign sizes (8 dies, 50 pairs, 10 repetitions).
"""

from __future__ import annotations

import argparse

from repro.campaigns import CampaignEngine
from repro.core.report import (
    delay_study_report,
    population_em_report,
    same_die_em_report,
)
from repro.experiments import ExperimentConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true",
                        help="use the paper's full campaign sizes")
    args = parser.parse_args()

    config = ExperimentConfig.paper() if args.paper else ExperimentConfig.fast()
    engine = CampaignEngine(config.campaign_spec())
    (cell,) = engine.spec.grid()
    platform = engine.platform_for(cell)

    print("=" * 72)
    print("Delay-based detection (Sec. III): clock-glitch path-delay comparison")
    print("=" * 72)
    delay_study = platform.run_delay_study(
        trojan_names=("HT_comb", "HT_seq"),
        num_pairs=min(config.num_pk_pairs, 10),
    )
    print(delay_study_report(delay_study))
    print()

    print("=" * 72)
    print("Same-die EM detection (Sec. IV): averaged-trace comparison")
    print("=" * 72)
    same_die = platform.run_same_die_em_study(("HT_comb",))
    print(same_die_em_report(same_die))
    print()

    print("=" * 72)
    print("Inter-die EM detection (Sec. V): HT size sweep across the die population")
    print("=" * 72)
    population = engine.population_study(cell)
    print(population_em_report(population))
    print()
    print("Paper reference: false negatives of 26% / 17% / 5% for trojans of")
    print("0.5% / 1.0% / 1.7% of the AES area (detection > 95% beyond 1.7%).")


if __name__ == "__main__":
    main()
