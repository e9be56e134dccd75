"""FIG3 — per-bit delay differences for clean and infected designs.

Paper claim: the two clean control curves stay at the measurement-noise
floor while HTcomb and HTseq shift some bits by up to ~1.4 ns, for every
(P, K) pair studied.
"""

from repro.experiments import fig3_delay


def test_fig3_per_bit_delay_differences(benchmark, config, platform):
    result = benchmark(fig3_delay.run, config, platform)
    benchmark.extra_info["clean_max_ps"] = round(result.clean_max_ps(), 1)
    benchmark.extra_info["infected_max_ps"] = round(result.infected_max_ps(), 1)
    benchmark.extra_info["separation_ratio"] = round(result.separation_ratio(), 2)
    pair = result.representative_pairs[0]
    for series in result.series:
        if series.pair_index == pair and series.label in (
                "Clean1", "HT_comb", "HT_seq"):
            benchmark.extra_info[f"max_ps[{series.label}]"] = round(
                series.max_ps(), 1)
    assert result.separation_ratio() > 1.5
    assert result.study.comparisons["HT_comb"].outcome.is_infected
    assert result.study.comparisons["HT_seq"].outcome.is_infected
    assert not result.study.comparisons["Clean1"].outcome.is_infected
