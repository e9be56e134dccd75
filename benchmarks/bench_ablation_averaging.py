"""Ablation — oscilloscope averaging count.

DESIGN.md question: the paper averages every trace 1 000 times; how does
the residual noise (and therefore the same-die detection margin)
degrade with fewer averages?
"""

import pytest

from repro.campaigns import CampaignSpec
from repro.core.pipeline import HTDetectionPlatform
from repro.measurement.em_simulator import EMAcquisitionConfig, EMSimulator
from repro.measurement.oscilloscope import Oscilloscope


@pytest.mark.parametrize("num_averages", [10, 100, 1000])
def test_averaging_ablation(benchmark, platform, num_averages):
    ablated = HTDetectionPlatform(CampaignSpec(die_counts=(2,)),
                                  golden=platform.golden)
    # The ablation varies the Sec. IV bench, so it brings its own.
    ablated.em_simulator = EMSimulator(EMAcquisitionConfig(
        oscilloscope=Oscilloscope(num_averages=num_averages)))

    def run_study():
        return ablated.run_same_die_em_study(("HT_comb",))

    study = benchmark(run_study)
    comparison = study.comparisons["HT_comb"]
    benchmark.extra_info["num_averages"] = num_averages
    benchmark.extra_info["noise_floor"] = round(comparison.noise_floor, 2)
    benchmark.extra_info["max_difference"] = round(comparison.max_difference, 1)
    benchmark.extra_info["margin"] = round(comparison.outcome.margin(), 1)
    assert comparison.max_difference > 0
