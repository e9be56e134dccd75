"""Shared fixtures.

The expensive objects (the LUT-mapped golden design, the detection
platform, the campaign results) are built once per test session: they
are deterministic, and most tests only read them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.core.pipeline import HTDetectionPlatform, PlatformConfig
from repro.experiments.config import FIXED_KEY, FIXED_PLAINTEXT, ExperimentConfig
from repro.fpga.design import GoldenDesign
from repro.fpga.device import virtex5_lx30
from repro.measurement.delay_meter import DelayMeasurementConfig, generate_pk_pairs
from repro.trojan.combinational import build_combinational_trojan
from repro.trojan.insertion import insert_trojan
from repro.trojan.library import build_trojan
from repro.trojan.sequential import build_sequential_trojan
from repro.variation.inter_die import DiePopulation


@pytest.fixture(scope="session")
def device():
    return virtex5_lx30()


@pytest.fixture(scope="session")
def golden_design(device):
    return GoldenDesign.build(device=device)


@pytest.fixture(scope="session")
def small_trojan():
    """A small combinational trojan (8-bit trigger, no padding) for unit tests."""
    return build_combinational_trojan("HT_test", trigger_width=8, payload_luts=2)


@pytest.fixture(scope="session")
def sequential_trojan():
    """A small sequential trojan (8-bit counter) for unit tests."""
    return build_sequential_trojan("HT_seq_test", counter_width=8, payload_luts=2)


@pytest.fixture(scope="session")
def ht_comb(device):
    return build_trojan("HT_comb", device)


@pytest.fixture(scope="session")
def infected_design(golden_design, ht_comb):
    return insert_trojan(golden_design, ht_comb)


@pytest.fixture(scope="session")
def die_population():
    return DiePopulation(size=4, seed=99)


@pytest.fixture(scope="session")
def fast_config():
    return ExperimentConfig.fast()


@pytest.fixture(scope="session")
def platform(golden_design):
    """A reduced but fully functional detection platform."""
    config = PlatformConfig(
        num_dies=4,
        seed=2015,
        delay=DelayMeasurementConfig(repetitions=5, seed=2015),
    )
    return HTDetectionPlatform(config=config, golden=golden_design)


@pytest.fixture(scope="session")
def pk_pairs():
    return generate_pk_pairs(3, seed=7)


@pytest.fixture(scope="session")
def delay_study(platform):
    """A small Sec. III campaign shared by the delay-detection tests."""
    return platform.run_delay_study(
        trojan_names=("HT_comb", "HT_seq"), num_pairs=3
    )


@pytest.fixture(scope="session")
def engine_study(golden_design):
    """``engine_study(**spec_fields)``: the Sec. V study of a one-cell
    campaign (``spec_fields`` go to :class:`CampaignSpec`) on the
    session's golden design."""
    def study(**spec_fields):
        spec = CampaignSpec(name="tests", **spec_fields)
        (cell,) = spec.grid()
        return CampaignEngine(spec, golden=golden_design).population_study(
            cell)
    return study


@pytest.fixture(scope="session")
def population_study(engine_study):
    """A small Sec. V campaign shared by the EM-detection tests: the
    population of the ``platform`` fixture's dies and seed."""
    return engine_study(trojans=("HT1", "HT3"), die_counts=(4,), seed=2015,
                        plaintext=FIXED_PLAINTEXT, key=FIXED_KEY)


@pytest.fixture(scope="session")
def population_traces(population_study):
    """``population_study``'s population as ``EMTrace`` lists."""
    return population_study.tensors.to_traces()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
