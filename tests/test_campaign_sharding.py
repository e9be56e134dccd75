"""Sharded campaign execution: partition properties and merge identity."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns import (
    AcquisitionVariant,
    CampaignEngine,
    CampaignResult,
    CampaignSpec,
    merge_campaign_results,
)
from repro.cli import main
from repro.testing import FaultInjection, FaultKind, FaultPlan


def _grid_spec(num_trojans, num_die_counts, num_variants, metrics):
    """A spec whose grid geometry is driven by the hypothesis draw."""
    trojans = ("HT1", "HT2", "HT3")[:num_trojans]
    die_counts = tuple(2 + i for i in range(num_die_counts))
    variants = tuple(
        AcquisitionVariant.make(
            f"v{i}", {"oscilloscope.num_averages": 100 + 50 * i})
        for i in range(num_variants)
    )
    return CampaignSpec(name="prop", trojans=trojans, die_counts=die_counts,
                        variants=variants, metrics=tuple(metrics))


@settings(max_examples=60, deadline=None)
@given(
    num_trojans=st.integers(1, 3),
    num_die_counts=st.integers(1, 4),
    num_variants=st.integers(1, 3),
    metrics=st.lists(
        st.sampled_from(["local_maxima_sum", "l1", "max_difference",
                         "delay_max_difference", "delay_mean_pair_max"]),
        min_size=1, max_size=5, unique=True),
    shard_count=st.integers(1, 7),
)
def test_shards_partition_the_grid(num_trojans, num_die_counts, num_variants,
                                   metrics, shard_count):
    """shard(i, n) is disjoint, exhaustive and deterministic."""
    spec = _grid_spec(num_trojans, num_die_counts, num_variants, metrics)
    grid_indices = [cell.index for cell in spec.grid()]
    seen = []
    for shard_index in range(shard_count):
        cells = spec.shard(shard_index, shard_count)
        # Deterministic: a second call gives the identical partition.
        again = spec.shard(shard_index, shard_count)
        assert [c.index for c in cells] == [c.index for c in again]
        assert all(first.describe() == second.describe()
                   for first, second in zip(cells, again))
        seen.extend(cell.index for cell in cells)
    # Disjoint (no index twice) and exhaustive (every index once).
    assert sorted(seen) == grid_indices


def test_shard_argument_validation():
    spec = CampaignSpec(trojans=("HT1",), die_counts=(2,))
    with pytest.raises(ValueError):
        spec.shard(0, 0)
    with pytest.raises(ValueError):
        spec.shard(2, 2)
    with pytest.raises(ValueError):
        spec.shard(-1, 2)


@pytest.fixture(scope="module")
def shard_spec():
    return CampaignSpec(
        name="sharded", trojans=("HT1", "HT3"), die_counts=(3, 4),
        variants=(AcquisitionVariant.make("paper"),
                  AcquisitionVariant.make(
                      "quiet", {"noise.sigma_single_shot": 200.0})),
        metrics=("local_maxima_sum", "delay_max_difference"),
        num_pk_pairs=2, delay_repetitions=2, seed=21,
    )


@pytest.fixture(scope="module")
def unsharded_rows(shard_spec, golden_design):
    result = CampaignEngine(shard_spec, golden=golden_design).run()
    return [row.to_dict() for row in result.rows()]


def test_merged_shards_identical_to_unsharded_run(tmp_path, shard_spec,
                                                  golden_design,
                                                  unsharded_rows):
    """Independent shard engines + merge == one unsharded run, row for row."""
    shard_results = [
        CampaignEngine(shard_spec, golden=golden_design).run(
            shard=(index, 3))
        for index in range(3)
    ]
    assert all(result.shard == (index, 3)
               for index, result in enumerate(shard_results))
    merged = merge_campaign_results(shard_results)
    assert [row.to_dict() for row in merged.rows()] == unsharded_rows
    assert [cell.index for cell in merged.cells] == \
        [cell.index for cell in shard_spec.grid()]


def test_merged_store_backed_shards_identical(tmp_path, shard_spec,
                                              golden_design, unsharded_rows):
    """Shards sharing one store still merge to the unsharded rows."""
    store = tmp_path / "store"
    shard_results = [
        CampaignEngine(shard_spec, golden=golden_design, store=store).run(
            shard=(index, 2))
        for index in range(2)
    ]
    merged = merge_campaign_results(shard_results)
    assert [row.to_dict() for row in merged.rows()] == unsharded_rows


def test_merge_rejects_mismatched_specs(shard_spec, golden_design):
    shard0 = CampaignEngine(shard_spec, golden=golden_design).run(
        shard=(0, 2))
    other_spec = CampaignSpec.from_dict(
        {**shard_spec.to_dict(), "seed": shard_spec.seed + 1}
    )
    other = CampaignEngine(other_spec, golden=golden_design).run(
        shard=(1, 2))
    with pytest.raises(ValueError, match="different physics"):
        merge_campaign_results([shard0, other])


def test_merge_rejects_incomplete_coverage(shard_spec, golden_design):
    shard0 = CampaignEngine(shard_spec, golden=golden_design).run(
        shard=(0, 3))
    shard1 = CampaignEngine(shard_spec, golden=golden_design).run(
        shard=(1, 3))
    with pytest.raises(ValueError, match="missing cell"):
        merge_campaign_results([shard0, shard1])


def test_merge_tolerates_duplicate_cells(shard_spec, golden_design,
                                         unsharded_rows):
    """Overlapping shard runs (e.g. a retried shard) merge cleanly."""
    full = CampaignEngine(shard_spec, golden=golden_design).run()
    shard0 = CampaignEngine(shard_spec, golden=golden_design).run(
        shard=(0, 2))
    merged = merge_campaign_results([full, shard0])
    assert [row.to_dict() for row in merged.rows()] == unsharded_rows


def test_campaign_result_round_trips_through_dict(shard_spec, golden_design):
    result = CampaignEngine(shard_spec, golden=golden_design).run(
        shard=(1, 2))
    payload = json.loads(json.dumps(result.to_dict()))
    loaded = CampaignResult.from_dict(payload)
    assert loaded.shard == (1, 2)
    assert [row.to_dict() for row in loaded.rows()] == \
        [row.to_dict() for row in result.rows()]
    assert loaded.spec.to_dict() == shard_spec.to_dict()


def test_cli_shard_run_and_merge_round_trip(tmp_path, capsys):
    """The documented two-shard quickstart, end to end through the CLI."""
    store = str(tmp_path / "store")
    common = ["campaign", "run", "--name", "cliq", "--trojan", "HT1",
              "--dies", "3", "--metric", "local_maxima_sum", "--metric",
              "l1", "--seed", "4", "--store", store]
    assert main(common + ["--shard", "0/2",
                          "--out", str(tmp_path / "shard0")]) == 0
    assert main(common + ["--shard", "1/2",
                          "--out", str(tmp_path / "shard1")]) == 0
    capsys.readouterr()
    assert main(["campaign", "merge", str(tmp_path / "shard0"),
                 str(tmp_path / "shard1"),
                 "--out", str(tmp_path / "merged")]) == 0
    merged_output = capsys.readouterr().out
    assert "merged 2 shard result(s) into 2 grid cells" in merged_output

    merged_payload = json.loads((tmp_path / "merged" / "cliq.json").read_text())
    unsharded = CampaignEngine(
        CampaignSpec.from_dict(merged_payload["spec"])
    ).run()
    assert [row.to_dict() for row in
            CampaignResult.from_dict(merged_payload).rows()] == \
        [row.to_dict() for row in unsharded.rows()]


def test_cli_merge_errors_on_incomplete_shards(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["campaign", "run", "--name", "half", "--trojan", "HT1",
                 "--dies", "3", "--metric", "local_maxima_sum", "--metric",
                 "l1", "--seed", "4", "--store", store, "--shard", "0/2",
                 "--out", str(tmp_path / "shard0")]) == 0
    capsys.readouterr()
    assert main(["campaign", "merge", str(tmp_path / "shard0")]) == 2
    assert "missing cell" in capsys.readouterr().err


def test_interrupted_run_resumes_from_the_store(tmp_path):
    """A mid-campaign SIGINT-style drain leaves the store resumable and
    the resumed run's rows bit-identical to an uninterrupted one."""
    spec = CampaignSpec(name="resume", trojans=("HT1",), die_counts=(2, 3),
                        metrics=("local_maxima_sum", "l1"), seed=7,
                        workers=2, max_retries=1, retry_backoff_s=0.01)
    baseline = [row.to_dict() for row in CampaignEngine(spec).run().rows()]

    store_root = tmp_path / "store"
    plan = FaultPlan(injections=(
        FaultInjection(cell_index=2, attempt=1, kind=FaultKind.INTERRUPT),))
    with pytest.raises(KeyboardInterrupt, match="resumable"):
        CampaignEngine(spec, store=store_root).run(fault_plan=plan)

    resumed = CampaignEngine(spec, store=store_root).run()
    assert resumed.failed_cells() == []
    assert [row.to_dict() for row in resumed.rows()] == baseline
