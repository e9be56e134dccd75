"""Array payloads: one group codec, unchanged bytes, one shared read-through.

The cached tensors are written straight from the arrays the engine
holds (``to_arrays``).  The bytes must equal what the trace-list
packers in ``tests/oracles/`` wrote, so stores written by older
versions keep resuming; and the experiment suite and the campaign
engine read the same population through the same store both ways.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.campaigns.engine import _DelayStudyData, _FaultSweepData
from repro.core.pipeline import PopulationTraceTensors
from repro.experiments import ExperimentConfig, fig6_pv, headline, run_all
from repro.measurement.delay_meter import PathDelayMeter
from repro.measurement.em_simulator import EMSimulator
from repro.store.artifact_store import encode_array_bytes

from oracles import (
    pack_delay_differences,
    pack_fault_sweep,
    pack_population_traces,
)


def _oracle_population(tensors):
    return pack_population_traces(*tensors.to_traces())


def _oracle_delay(data):
    return pack_delay_differences(data.golden_differences,
                                  data.infected_differences)


def _oracle_fault(data):
    return pack_fault_sweep(
        {"offsets_ps": data.grid.offsets_ps,
         "widths_ps": data.grid.widths_ps,
         "periods_ps": data.grid.periods_ps},
        data.plaintexts, data.correct,
        data.golden_faulted, data.infected_faulted)


def _spec(**overrides) -> CampaignSpec:
    fields = dict(name="payloads", trojans=("HT1", "HT3"), die_counts=(2,),
                  metrics=("l1", "delay_max_difference", "fault_coverage"),
                  num_pk_pairs=2, seed=11)
    fields.update(overrides)
    return CampaignSpec(**fields)


def _cell(spec: CampaignSpec, metric: str):
    (cell,) = [cell for cell in spec.grid() if cell.metric == metric]
    return cell


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("num_plaintexts", [1, 3])
def test_population_payload_bytes_match_the_oracle(golden_design,
                                                   num_plaintexts):
    spec = _spec(num_plaintexts=num_plaintexts)
    tensors = CampaignEngine(spec, golden=golden_design)._cell_tensors(
        _cell(spec, "l1"))
    assert encode_array_bytes(tensors.to_arrays()) == \
        encode_array_bytes(_oracle_population(tensors))


def test_delay_payload_bytes_match_the_oracle(golden_design):
    spec = _spec()
    data = CampaignEngine(spec, golden=golden_design).delay_study_data(
        _cell(spec, "delay_max_difference"))
    assert encode_array_bytes(data.to_arrays()) == \
        encode_array_bytes(_oracle_delay(data))


def test_auto_calibrated_fault_payload_bytes_match_the_oracle(golden_design):
    spec = _spec()
    assert spec.glitch_offsets_ps == ()  # auto-calibrated grid
    data = CampaignEngine(spec, golden=golden_design).fault_sweep_data(
        _cell(spec, "fault_coverage"))
    assert encode_array_bytes(data.to_arrays()) == \
        encode_array_bytes(_oracle_fault(data))


def test_store_written_by_the_oracles_resumes_warm(monkeypatch, tmp_path,
                                                   golden_design):
    store = tmp_path / "store"
    spec = _spec(num_plaintexts=2)
    monkeypatch.setattr(PopulationTraceTensors, "to_arrays",
                        _oracle_population)
    monkeypatch.setattr(_DelayStudyData, "to_arrays", _oracle_delay)
    monkeypatch.setattr(_FaultSweepData, "to_arrays", _oracle_fault)
    cold = CampaignEngine(spec, golden=golden_design, store=store).run()
    monkeypatch.undo()

    acquisitions = _count_calls(monkeypatch, EMSimulator, "_acquire_grid")
    measurements = _count_calls(monkeypatch, PathDelayMeter, "measure_batch")
    sweeps = _count_calls(monkeypatch, PathDelayMeter,
                          "batch_arrival_times")
    rerun = CampaignEngine(spec, golden=golden_design, store=store).run()
    assert rerun.resumed == len(spec.grid())
    assert [row.to_dict() for row in rerun.rows()] == \
        [row.to_dict() for row in cold.rows()]
    # Reordered metrics give new cell keys but the same intermediates:
    # every cell is scored from the oracle-written tensors.
    reordered = dataclasses.replace(spec, metrics=spec.metrics[::-1])
    warm = CampaignEngine(reordered, golden=golden_design, store=store).run()
    assert warm.resumed == 0
    assert acquisitions == [] and measurements == [] and sweeps == []
    monkeypatch.undo()
    fresh = CampaignEngine(reordered, golden=golden_design).run()
    assert [row.to_dict() for row in warm.rows()] == \
        [row.to_dict() for row in fresh.rows()]


def test_suite_population_follows_num_plaintexts():
    config = dataclasses.replace(ExperimentConfig.fast(), num_plaintexts=3)
    suite = run_all(config)
    alone_headline = headline.run(config)
    assert [dataclasses.astuple(row)
            for row in suite.results["headline"].rows] == \
        [dataclasses.astuple(row) for row in alone_headline.rows]
    suite_fig6 = suite.results["fig6"]
    alone_fig6 = fig6_pv.run(config)
    assert suite_fig6.reference_mean.tobytes() == \
        alone_fig6.reference_mean.tobytes()
    assert suite_fig6.golden_peak_per_die() == alone_fig6.golden_peak_per_die()
    for name in alone_fig6.trojan_names:
        assert suite_fig6.infected_peak_per_die(name) == \
            alone_fig6.infected_peak_per_die(name)


def test_suite_and_campaign_share_the_store_both_ways(monkeypatch, tmp_path,
                                                      capsys):
    from repro.cli import main

    acquisitions = _count_calls(monkeypatch, EMSimulator,
                                "acquire_many_batch_tensor")

    def experiments(store):
        del acquisitions[:]
        assert main(["experiments", "--quick", "--store", str(store)]) == 0
        return len(acquisitions), capsys.readouterr().out

    def campaign(store):
        del acquisitions[:]
        assert main(["campaign", "run", "--trojan", "HT1", "--trojan", "HT2",
                     "--trojan", "HT3", "--dies", "4", "--seed", "2015",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        return len(acquisitions)

    # Suite first: the campaign finds the suite's population.
    cold_suite, cold_table = experiments(tmp_path / "suite-first")
    assert campaign(tmp_path / "suite-first") == 0
    # Campaign first: the suite skips exactly the shared study's golden
    # and three infected acquisitions, and prints the same table.
    assert campaign(tmp_path / "campaign-first") == 4
    warm_suite, warm_table = experiments(tmp_path / "campaign-first")
    assert warm_suite == cold_suite - 4
    assert warm_table == cold_table
