"""HEADLINE — false-negative rate versus trojan size.

Paper claim: with 8 dies and the sum-of-local-maxima metric the
false-negative rates are 26 % / 17 % / 5 % for HTs of 0.5 % / 1.0 % /
1.7 % of the AES area, i.e. detection exceeds 95 % for HTs >= 1.7 %.
"""

from repro.experiments import headline
from repro.experiments.headline import PAPER_FALSE_NEGATIVE_RATES


def test_headline_false_negative_rates(benchmark, config, suite_engine):
    result = benchmark(lambda: headline.run(config, suite_engine()))
    for row in result.rows:
        benchmark.extra_info[f"fn_rate[{row.trojan_name}]"] = round(
            row.false_negative_rate, 4
        )
        benchmark.extra_info[f"paper_fn_rate[{row.trojan_name}]"] = \
            PAPER_FALSE_NEGATIVE_RATES[row.trojan_name]
        benchmark.extra_info[f"area_fraction[{row.trojan_name}]"] = round(
            row.area_fraction, 4
        )
    benchmark.extra_info["largest_trojan_detection"] = round(
        result.largest_trojan_detection(), 4
    )
    assert result.is_monotone_decreasing()
    assert result.largest_trojan_detection() >= 0.90
