#!/usr/bin/env python3
"""Scenario: how does detection degrade with process variation and HT size?

The paper's Sec. V perspective asks for repeating the inter-die study on
many more dies.  This example does exactly that with the simulated
population: it sweeps the number of reference dies and the trojan size,
reports the false-negative rate of Eq. (5) for each combination, and
answers the sizing question "how small a trojan can this process hide?"
using :func:`repro.core.metrics.required_separation`.

Run with::

    python examples/process_variation_study.py [--dies 8 16] [--trojans HT1 HT2 HT3]
"""

from __future__ import annotations

import argparse

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.core import required_separation
from repro.core.report import format_table, percentage


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dies", type=int, nargs="+", default=[4, 8, 16],
                        help="die-population sizes to sweep")
    parser.add_argument("--trojans", nargs="+", default=["HT1", "HT2", "HT3"],
                        help="catalog trojans to screen")
    args = parser.parse_args()

    # One campaign: one grid cell (one Sec. V population study) per die
    # count, sharing the golden design and the trojan insertions.
    spec = CampaignSpec(name="process-variation", trojans=tuple(args.trojans),
                        die_counts=tuple(args.dies))
    result = CampaignEngine(spec).run()
    rows = [[str(row.num_dies), row.trojan, percentage(row.area_fraction),
             f"{row.mu:.0f}", f"{row.sigma:.0f}",
             percentage(row.false_negative_rate),
             percentage(row.detection_probability)]
            for row in result.rows()]

    print(format_table(
        ["dies", "trojan", "size (% AES)", "mu", "sigma",
         "false negative", "detection"],
        rows,
    ))

    # Sizing question: with the spread observed on the last population,
    # what separation (and hence, roughly, what trojan size) is needed for
    # a 5 % false-negative rate, the paper's headline operating point?
    last_cell = result.cells[-1].rows
    sigma = max(row.sigma for row in last_cell)
    needed_mu = required_separation(0.05, sigma)
    reference = last_cell[-1]
    print(f"\nMetric separation needed for a 5% false-negative rate: "
          f"{needed_mu:.0f} (sigma = {sigma:.0f})")
    print(f"The largest screened trojan ({reference.trojan}) achieves "
          f"mu = {reference.mu:.0f}, i.e. "
          f"{'enough' if reference.mu >= needed_mu else 'not enough'} "
          "for the paper's >95% detection claim on this population.")


if __name__ == "__main__":
    main()
