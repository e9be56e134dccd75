"""Ablation — number of (P, K) pairs used by the delay detector.

DESIGN.md question (and the paper's own remark): each (P, K) pair
sensitises a different set of bits, so more pairs sample more of the
design and gather more evidence.  The benchmark measures how the number
of bits ever observed and the worst trojan-induced shift grow with the
number of pairs.
"""

import pytest


@pytest.mark.parametrize("num_pairs", [1, 2, 4])
def test_pk_pair_count_ablation(benchmark, platform, num_pairs):
    def run_study():
        return platform.run_delay_study(
            trojan_names=("HT_comb",), num_pairs=num_pairs, pair_seed=7
        )

    study = benchmark(run_study)
    comparison = study.comparisons["HT_comb"]
    observed_bits = {
        int(bit)
        for pair in study.measurements["HT_comb"].pairs
        for bit in pair.observable_bits()
    }
    benchmark.extra_info["num_pairs"] = num_pairs
    benchmark.extra_info["bits_observed"] = len(observed_bits)
    benchmark.extra_info["max_shift_ps"] = round(comparison.max_difference_ps, 1)
    benchmark.extra_info["detected"] = comparison.outcome.is_infected
    assert len(observed_bits) > 0
