"""FIG6 — inter-die differences against the mean golden trace.

Paper claim: the |G_j - E(G)| curves of the golden dies define the
process-variation envelope; infected devices of 1 % and more rise above
it at specific samples.
"""

import numpy as np

from repro.experiments import fig6_pv


def test_fig6_inter_die_differences(benchmark, config, suite_engine):
    result = benchmark(lambda: fig6_pv.run(config, suite_engine()))
    benchmark.extra_info["pv_envelope"] = round(result.golden_envelope(), 1)
    for name in result.trojan_names:
        peaks = result.infected_peak_per_die(name)
        benchmark.extra_info[f"mean_peak[{name}]"] = round(float(np.mean(peaks)), 1)
        benchmark.extra_info[f"dies_above_envelope[{name}]"] = \
            result.exceeds_pv_envelope(name)
    assert result.golden_envelope() > 0
    assert result.exceeds_pv_envelope("HT3") >= result.exceeds_pv_envelope("HT1")
