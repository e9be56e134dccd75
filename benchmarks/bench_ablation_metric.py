"""Ablation — EM detection metric choice.

DESIGN.md question: does summing the local maxima of the absolute
difference (the paper's metric) actually beat integrating the whole
difference (L1) or looking at the single worst sample (max)?

The benchmark scores the HT2 population with each metric and records the
resulting effect size (mu / sigma) and false-negative rate.
"""

import pytest

from repro.core.em_detector import PopulationEMDetector
from repro.core.metrics import L1TraceMetric, LocalMaximaSumMetric, MaxDifferenceMetric
from repro.experiments.config import FIXED_KEY, FIXED_PLAINTEXT

METRICS = {
    "local_maxima_sum": LocalMaximaSumMetric(),
    "l1_mean": L1TraceMetric(),
    "max_sample": MaxDifferenceMetric(),
}


@pytest.fixture(scope="module")
def population(platform):
    return platform.acquire_population_tensors(("HT2",), [FIXED_PLAINTEXT],
                                               FIXED_KEY)


@pytest.mark.parametrize("metric_name", sorted(METRICS))
def test_metric_ablation(benchmark, metric_name, population):
    metric = METRICS[metric_name]

    def characterise():
        detector = PopulationEMDetector(metric=metric)
        detector.fit_reference(population.golden)
        return detector.characterise(population.infected["HT2"])

    characterisation = benchmark(characterise)
    effect = (characterisation.mu / characterisation.sigma
              if characterisation.sigma > 0 else float("inf"))
    benchmark.extra_info["metric"] = metric_name
    benchmark.extra_info["effect_size"] = round(effect, 3)
    benchmark.extra_info["false_negative_rate"] = round(
        characterisation.false_negative_rate, 4
    )
    assert characterisation.mu > 0
