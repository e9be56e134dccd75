"""SUPERVISOR — fault-tolerant runner versus the bare process pool.

The supervisor's claim: retries, per-cell timeouts, death detection and
graceful drains are *bookkeeping*, not a tax on the physics.  On a
clean fig6-scale parallel campaign (no faults injected) the supervised
run must finish within **10%** of the bare, unsupervised
``ProcessPoolExecutor`` reference it replaced — plus a small absolute
slack so the gate stays meaningful when both runs are fast.

The supervised rows must also be *bit-identical* to the bare pool's:
supervision changes how cells are scheduled, never what they compute.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.campaigns.engine import CampaignCellResult
from repro.campaigns.spec import GridCell
from repro.campaigns.supervisor import CampaignSupervisor

OVERHEAD_GATE = 1.10
ABSOLUTE_SLACK_S = 1.0


def _run_parallel(engine: CampaignEngine,
                  cells: List[GridCell]) -> List[CampaignCellResult]:
    """Bare process-pool execution — the *unsupervised* reference.

    Campaign runs go through :class:`CampaignSupervisor`, which adds
    retries, timeouts and poison-cell quarantine on top of the same
    chunking; this is the zero-overhead baseline the gate compares
    against (one crashed worker here still aborts everything with
    ``BrokenProcessPool``).  Cells are chunked by acquisition key so a
    worker reuses its acquired population across the metrics of one
    (die count, variant) point, and workers share the engine's store.
    """
    chunks: Dict[tuple, List[int]] = {}
    for cell in cells:
        chunks.setdefault(cell.acquisition_key, []).append(cell.index)
    spec_dict = engine.spec.to_dict()
    store_config = (engine.store.spawn_config()
                    if engine.store is not None else None)
    results: Dict[int, CampaignCellResult] = {}
    with ProcessPoolExecutor(
            max_workers=min(engine.spec.workers, len(chunks))) as pool:
        # The engine's device, golden design (None when unbuilt) and
        # golden signature travel with the payload, so worker-written
        # artifacts carry this engine's content keys.
        for chunk_results in pool.map(
                _run_cells_in_subprocess,
                [(spec_dict, indices, engine.device, engine._golden,
                  store_config, engine._golden_signature)
                 for indices in chunks.values()]):
            for cell_result in chunk_results:
                results[cell_result.index] = cell_result
    return [results[cell.index] for cell in cells]


def _run_cells_in_subprocess(payload) -> List[CampaignCellResult]:
    """Worker entry point: rebuild the engine and run a chunk of cells."""
    spec_dict, indices, device, golden, store_config, golden_sig = payload
    engine = CampaignEngine(CampaignSpec.from_dict(spec_dict),
                            device=device, golden=golden, store=store_config)
    engine._golden_signature = golden_sig
    if engine.store is not None:
        engine.store.acquire_lease(owner=f"chunk:{engine.spec.name}")
    grid = engine.spec.grid()
    chunk_results: List[CampaignCellResult] = []
    try:
        for index in indices:
            cell_result = engine.run_cell(grid[index])
            engine.record_cell_result(grid[index], cell_result)
            chunk_results.append(cell_result)
    finally:
        if engine.store is not None:
            engine.store.release_lease()
    return chunk_results


def _fig6_scale_spec() -> CampaignSpec:
    return CampaignSpec(
        name="supervisor-overhead", trojans=("HT1", "HT3"),
        die_counts=(6, 8), metrics=("local_maxima_sum", "l1"),
        num_pk_pairs=4, seed=2015, workers=2,
    )


def test_supervised_run_overhead_within_10_percent(benchmark):
    spec = _fig6_scale_spec()
    root = Path(tempfile.mkdtemp(prefix="bench_supervisor_"))
    try:
        cells = spec.grid()

        # Bare pool reference: the unsupervised executor.map path the
        # supervisor replaced, kept here for exactly this comparison.
        bare_engine = CampaignEngine(spec, store=root / "bare")
        start = time.perf_counter()
        bare_results = _run_parallel(bare_engine, cells)
        bare_seconds = time.perf_counter() - start

        supervised_engine = CampaignEngine(spec, store=root / "supervised")
        start = time.perf_counter()
        supervised_results = CampaignSupervisor(supervised_engine).run(cells)
        supervised_seconds = time.perf_counter() - start

        bare_rows = [row.to_dict()
                     for cell in sorted(bare_results, key=lambda c: c.index)
                     for row in cell.rows]
        supervised_rows = [row.to_dict()
                           for index in sorted(supervised_results)
                           for row in supervised_results[index].rows]
        assert supervised_rows == bare_rows, (
            "supervision must not change what the cells compute"
        )

        budget = bare_seconds * OVERHEAD_GATE + ABSOLUTE_SLACK_S
        overhead = supervised_seconds / bare_seconds
        benchmark.extra_info["bare_pool_seconds"] = round(bare_seconds, 4)
        benchmark.extra_info["supervised_seconds"] = round(
            supervised_seconds, 4)
        benchmark.extra_info["overhead_factor"] = round(overhead, 3)
        benchmark.extra_info["gate_factor"] = OVERHEAD_GATE
        benchmark.extra_info["absolute_slack_s"] = ABSOLUTE_SLACK_S
        benchmark.extra_info["cells"] = len(cells)
        benchmark.extra_info["workers"] = spec.workers
        assert supervised_seconds <= budget, (
            f"supervised run must stay within {OVERHEAD_GATE:.2f}x of the "
            f"bare pool + {ABSOLUTE_SLACK_S:.1f} s (bare {bare_seconds:.3f} s, "
            f"supervised {supervised_seconds:.3f} s, {overhead:.2f}x)"
        )

        # The timed contract is above; the benchmark records the
        # steady-state cost of one warm supervised run (scheduling +
        # store reads, no recompute) — the overhead floor.
        warm_engine = CampaignEngine(spec, store=root / "supervised")
        benchmark(lambda: CampaignSupervisor(warm_engine).run(cells))
    finally:
        shutil.rmtree(root, ignore_errors=True)
