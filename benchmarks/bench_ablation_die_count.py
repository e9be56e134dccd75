"""Ablation — number of reference dies in the golden population.

The paper's perspectives call for repeating the inter-die study on
"n >> 8" FPGAs.  The benchmark sweeps the population size and records
how the estimated false-negative rate of HT2 behaves as the golden
reference grows.
"""

import pytest

from repro.campaigns import CampaignEngine, CampaignSpec


@pytest.mark.parametrize("num_dies", [3, 6, 10])
def test_die_count_ablation(benchmark, platform, num_dies):
    spec = CampaignSpec(name="die-count", trojans=("HT2",),
                        die_counts=(num_dies,))
    (cell,) = spec.grid()

    def run_study():
        engine = CampaignEngine(spec, golden=platform.golden)
        return engine.population_study(cell)

    study = benchmark(run_study)
    characterisation = study.characterisations["HT2"]
    benchmark.extra_info["num_dies"] = num_dies
    benchmark.extra_info["mu"] = round(characterisation.mu, 1)
    benchmark.extra_info["sigma"] = round(characterisation.sigma, 1)
    benchmark.extra_info["false_negative_rate"] = round(
        characterisation.false_negative_rate, 4
    )
    assert 0.0 <= characterisation.false_negative_rate <= 0.5
