"""Campaigns over remote/tiered stores, through partitions and back.

The acceptance test of this suite (ISSUE 10) runs a 3-shard campaign
whose shards all write through :class:`~repro.store.tiered.TieredStore`
into one shared remote behind a :class:`~chaos.transport.FlakyTransport`
— seeded faults including a full partition window that
opens mid-run.  The campaign must complete (degrading to local-only
writes), ``store sync`` must drain every journaled upload once the
remote heals, and the merged rows must be bit-identical to a plain
serial local-store run with zero lost cells: a fresh, empty local tier
over the healed remote resumes every cell as a warm hit.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    merge_campaign_results,
)
from repro.store import (
    ArtifactStore,
    LoopbackTransport,
    RemoteStore,
    RetryPolicy,
    TieredStore,
)
from chaos import FaultSchedule, FaultWindow, FlakyTransport

#: Same small multi-chunk grid as the shared-store stress suite:
#: 2 die populations x 2 metrics = 4 cells.
SPEC_KWARGS = dict(
    name="remote-campaign", trojans=("HT1",), die_counts=(2, 3),
    metrics=("local_maxima_sum", "l1"), seed=13,
    max_retries=1, retry_backoff_s=0.01,
)

SHARDS = 3

#: Zero-sleep retries keep the fault schedules deterministic *and* fast.
FAST_RETRY = RetryPolicy(attempts=3, base_s=0.0, token="test")


def _stress_root(tmp_path, name):
    """Store parent dir — under $REPRO_STRESS_DIR when CI sets it, so a
    failing run's store state survives as an uploadable artifact."""
    base = os.environ.get("REPRO_STRESS_DIR")
    if base:
        root = Path(base) / f"{name}-{os.getpid()}"
        root.mkdir(parents=True, exist_ok=True)
        return root
    return tmp_path


def _remote(transport):
    return RemoteStore(transport, retry=FAST_RETRY)


def test_engine_accepts_tiered_store_and_resumes_from_remote(tmp_path):
    """A campaign through a (clean) tiered store is bit-identical to a
    local run, and a second host with an empty local tier resumes every
    cell from the remote without recomputing."""
    root = _stress_root(tmp_path, "tiered-clean")
    spec = CampaignSpec(**SPEC_KWARGS)
    serial = CampaignEngine(CampaignSpec(**SPEC_KWARGS),
                            store=str(root / "plain")).run()

    remote_dir = root / "remote"
    tiered = TieredStore(root / "host-a", _remote(
        LoopbackTransport(remote_dir)))
    result = CampaignEngine(spec, store=tiered).run()
    assert [r.to_dict() for r in result.rows()] == \
        [r.to_dict() for r in serial.rows()]
    assert tiered.pending_uploads() == []

    # Host B: empty local tier, same remote — every cell is already
    # complete, so the engine resumes with zero recomputed cells.
    host_b = TieredStore(root / "host-b", _remote(
        LoopbackTransport(remote_dir)))
    engine_b = CampaignEngine(CampaignSpec(**SPEC_KWARGS), store=host_b)
    for cell in engine_b.spec.grid():
        assert engine_b.load_cell_result(cell) is not None, \
            f"cell {cell.index} was lost in replication"
    result_b = engine_b.run()
    assert [r.to_dict() for r in result_b.rows()] == \
        [r.to_dict() for r in serial.rows()]


def test_supervised_workers_share_a_tiered_store(tmp_path):
    """The supervisor ships tiered stores to worker processes via
    spawn configs; worker-written artifacts reach the remote tier."""
    root = _stress_root(tmp_path, "tiered-workers")
    spec = CampaignSpec(workers=2, **SPEC_KWARGS)
    remote_dir = root / "remote"
    tiered = TieredStore(root / "local", _remote(
        LoopbackTransport(remote_dir)))
    result = CampaignEngine(spec, store=tiered).run()
    assert all(row.status == "ok" for row in result.cells)

    serial = CampaignEngine(CampaignSpec(**SPEC_KWARGS)).run()
    assert [r.to_dict() for r in result.rows()] == \
        [r.to_dict() for r in serial.rows()]
    # Every cell's completion record is readable from the remote alone.
    fresh = TieredStore(root / "fresh-local", _remote(
        LoopbackTransport(remote_dir)))
    engine = CampaignEngine(CampaignSpec(**SPEC_KWARGS), store=fresh)
    assert all(engine.load_cell_result(cell) is not None
               for cell in engine.spec.grid())


def test_sharded_campaign_through_partition_and_reconnect(tmp_path):
    """ISSUE 10 acceptance: a 3-shard campaign over a FlakyTransport
    remote — seeded faults including a full partition window opening
    mid-run — completes after ``store sync`` with merged rows
    bit-identical to a serial local-store run and zero lost cells."""
    from repro.cli import main

    root = _stress_root(tmp_path, "partition")
    remote_dir = root / "remote"
    spec = CampaignSpec(**SPEC_KWARGS)

    # Every transport op from ordinal 6 on fails: the partition opens
    # mid-run (the first puts replicate, the rest journal) and never
    # heals within the run.  A couple of scripted early blips exercise
    # the retry path before the partition.  One frozen schedule per
    # shard process — equal seeds replay equal fault sequences.
    schedule = FaultSchedule(at=((1, "connect"), (3, "timeout")),
                             windows=(FaultWindow(6, 10**9, "connect"),),
                             seed=20)

    shard_results = []
    degraded = 0
    for shard_index in range(SHARDS):
        tiered = TieredStore(
            root / f"shard-{shard_index}",
            _remote(FlakyTransport(LoopbackTransport(remote_dir), schedule)))
        engine = CampaignEngine(CampaignSpec(**SPEC_KWARGS), store=tiered)
        result = engine.run(shard=(shard_index, SHARDS))
        assert all(row.status == "ok" for row in result.cells), \
            "the partition must degrade writes, never fail cells"
        shard_results.append(result)
        degraded += tiered.degraded_writes
    assert degraded > 0, "the partition window never bit — schedule is stale"

    # The remote heals: drain every shard's journal via the CLI.
    for shard_index in range(SHARDS):
        rc = main(["store", "sync", str(root / f"shard-{shard_index}"),
                   "--remote", str(remote_dir)])
        assert rc == 0, f"store sync failed for shard {shard_index}"

    # Merged rows bit-identical to a clean serial local-store run.
    merged = merge_campaign_results(shard_results)
    serial = CampaignEngine(CampaignSpec(**SPEC_KWARGS),
                            store=str(root / "serial-store")).run()
    assert [row.to_dict() for row in merged.rows()] == \
        [row.to_dict() for row in serial.rows()]

    # Zero lost cells: a fresh host with an empty local tier sees every
    # cell of the full grid as complete on the healed remote.
    fresh = TieredStore(root / "fresh", _remote(
        LoopbackTransport(remote_dir)))
    engine = CampaignEngine(CampaignSpec(**SPEC_KWARGS), store=fresh)
    for cell in engine.spec.grid():
        assert engine.load_cell_result(cell) is not None, \
            f"cell {cell.index} was lost across the partition"

    # And the healed remote is internally consistent: every key's
    # payload verifies against its manifest digest.
    remote = _remote(LoopbackTransport(remote_dir))
    for key in remote.keys():
        assert remote.object_bytes(key) is not None

    # The local shard tiers remain verifiably clean stores.
    for shard_index in range(SHARDS):
        report = ArtifactStore(root / f"shard-{shard_index}").fsck()
        assert report.clean()
