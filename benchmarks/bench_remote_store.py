"""STORE — tiered (local + loopback remote) overhead on warm resume.

The remote layer (write-through :class:`TieredStore`, SHA-verified
:class:`RemoteStore` puts/gets, retry + circuit-breaker bookkeeping) must
stay close to free on the path users actually feel: a warm store-backed
rerun that resolves every cell from the local tier's manifest.  The gate:
the median tiered warm rerun takes at most **20%** longer than the
median plain local :class:`ArtifactStore` rerun.  There is no absolute
slack: each timed sample is ``REPEATS`` reruns long (>= 0.2 s on a 2-core
VM, where one warm rerun of this grid takes about 1 ms) and the medians
of ``SAMPLES`` interleaved plain/tiered samples are compared.

The warm rows must also stay bit-identical between the two modes —
tiering is a durability feature, never a behaviour change.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.store import LoopbackTransport, RemoteStore, TieredStore

NUM_DIES = 8
TROJANS = ("HT1", "HT2", "HT3")
SEED = 2015

#: Median tiered warm rerun may cost at most 20% over the plain-local one.
OVERHEAD_GATE = 1.20

#: Warm reruns per timed sample (sized so that one sample takes >= 0.2 s).
REPEATS = 500

#: Interleaved plain/tiered sample pairs; the gate compares their medians.
SAMPLES = 5


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="remote-store-bench", trojans=TROJANS, die_counts=(NUM_DIES,),
        metrics=("local_maxima_sum", "delay_max_difference"),
        num_pk_pairs=8, delay_repetitions=5, seed=SEED,
    )


def _tiered(local_dir: Path, remote_dir: Path) -> TieredStore:
    return TieredStore(local_dir, RemoteStore(LoopbackTransport(remote_dir)))


def _interleaved_medians(baseline, candidate) -> tuple:
    """Median seconds per call of two workloads, timed in alternation.

    Each sample alternates single calls of the two workloads ``REPEATS``
    times and sums each side's time, so a slow phase of a shared host
    hits both sides alike instead of biasing one whole sample.
    """
    samples = ([], [])
    for _ in range(SAMPLES):
        totals = [0.0, 0.0]
        for _ in range(REPEATS):
            for side, work in enumerate((baseline, candidate)):
                start = time.perf_counter()
                work()
                totals[side] += time.perf_counter() - start
        for series, total in zip(samples, totals):
            series.append(total / REPEATS)
    return statistics.median(samples[0]), statistics.median(samples[1])


def test_tiered_overhead_on_warm_resume_is_within_20_percent(benchmark):
    spec = _spec()
    root = Path(tempfile.mkdtemp(prefix="bench_remote_store_"))
    try:
        local_dir = root / "local"
        remote_dir = root / "remote"
        plain_dir = root / "plain"

        # Populate both configurations cold.
        tiered = _tiered(local_dir, remote_dir)
        CampaignEngine(spec, store=tiered).run()
        assert tiered.pending_uploads() == [], (
            "loopback replication must never journal"
        )
        CampaignEngine(spec, store=str(plain_dir)).run()

        def plain_rerun():
            return CampaignEngine(spec, store=str(plain_dir)).run()

        def tiered_rerun():
            return CampaignEngine(
                spec, store=_tiered(local_dir, remote_dir)).run()

        assert [row.to_dict() for row in tiered_rerun().rows()] == \
            [row.to_dict() for row in plain_rerun().rows()], (
            "tiering must never change campaign rows"
        )

        plain_seconds, tiered_seconds = _interleaved_medians(
            plain_rerun, tiered_rerun)
        overhead = tiered_seconds / plain_seconds
        benchmark.extra_info["plain_seconds"] = round(plain_seconds, 6)
        benchmark.extra_info["tiered_seconds"] = round(tiered_seconds, 6)
        benchmark.extra_info["plain_sample_seconds"] = round(
            plain_seconds * REPEATS, 3)
        benchmark.extra_info["overhead_factor"] = round(overhead, 3)
        benchmark.extra_info["gate_factor"] = OVERHEAD_GATE
        benchmark.extra_info["repeats"] = REPEATS
        benchmark.extra_info["samples"] = SAMPLES
        benchmark.extra_info["cells"] = spec.num_cells()
        assert overhead <= OVERHEAD_GATE, (
            f"tiered store costs {overhead:.2f}x on the warm resume path "
            f"(median tiered {tiered_seconds * 1e3:.3f} ms vs plain "
            f"{plain_seconds * 1e3:.3f} ms per rerun; gate "
            f"{OVERHEAD_GATE:.2f}x)"
        )

        # The recorded benchmark is the steady-state tiered warm rerun —
        # what a remote-backed campaign pays on every resume.
        benchmark(tiered_rerun)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_cold_remote_resume_recomputes_nothing():
    """A fresh host (empty local tier, warm remote) must resolve every
    cell by backfilling from the remote — zero recomputed cells, rows
    bit-identical to the original run."""
    spec = _spec()
    root = Path(tempfile.mkdtemp(prefix="bench_remote_store_"))
    try:
        remote_dir = root / "remote"
        first = CampaignEngine(
            spec, store=_tiered(root / "host-a", remote_dir)).run()

        host_b = _tiered(root / "host-b", remote_dir)
        engine = CampaignEngine(spec, store=host_b)
        for cell in spec.grid():
            assert engine.load_cell_result(cell) is not None, (
                f"cell {cell.index} missing from the remote tier"
            )
        second = engine.run()
        assert [row.to_dict() for row in second.rows()] == \
            [row.to_dict() for row in first.rows()]
        assert host_b.backfills > 0
    finally:
        shutil.rmtree(root, ignore_errors=True)
