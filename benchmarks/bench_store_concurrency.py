"""STORE — maintenance between warm store-resumes.

The concurrency layer (the shared store lock and a per-key write lock
around each put, the exclusive store lock around maintenance) must
never cost a rerun its stored work: ``gc`` and ``fsck --repair`` run
between two store-backed runs of one grid, and the second run must
resume every cell, with rows bit-identical to the first.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.store import ArtifactStore

NUM_DIES = 8
TROJANS = ("HT1", "HT2", "HT3")
SEED = 2015


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="store-concurrency", trojans=TROJANS, die_counts=(NUM_DIES,),
        metrics=("local_maxima_sum", "delay_max_difference"),
        num_pk_pairs=8, delay_repetitions=5, seed=SEED,
    )


def test_maintenance_during_warm_resume_changes_nothing():
    """gc + fsck --repair interleaved between warm reruns must neither
    slow correctness down nor remove anything a rerun needs."""
    spec = _spec()
    root = Path(tempfile.mkdtemp(prefix="bench_store_conc_"))
    try:
        store_dir = root / "store"
        first = CampaignEngine(spec, store=store_dir).run()
        store = ArtifactStore(store_dir)
        removed = store.gc(wait_s=10.0)
        assert removed["orphan_objects"] == 0
        assert store.fsck(repair=True, wait_s=10.0).clean()

        engine = CampaignEngine(spec, store=store_dir)
        computed = []
        original = engine.run_cell
        engine.run_cell = lambda cell: (computed.append(cell.index),
                                        original(cell))[1]
        again = engine.run()
        assert computed == [], (
            f"maintenance cost a recompute of cells {computed}"
        )
        assert [row.to_dict() for row in again.rows()] == \
            [row.to_dict() for row in first.rows()]
    finally:
        shutil.rmtree(root, ignore_errors=True)
