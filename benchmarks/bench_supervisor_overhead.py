"""SUPERVISOR — fault-tolerant runner versus the bare process pool.

The supervisor's claim: retries, per-cell timeouts, death detection and
graceful drains are *bookkeeping*, not a tax on the physics.  On a
clean fig6-scale parallel campaign (no faults injected) the supervised
run must finish within **10%** of the bare, unsupervised
``ProcessPoolExecutor`` reference it replaced.

Each contender's call is one cold run on a fresh engine and a fresh
store.  A timed sample repeats the call until it lasts at least 0.2 s;
the contenders' samples alternate five times and the gate compares
their medians, with no absolute slack (:mod:`interleave`).

The supervised rows must also be *bit-identical* to the bare pool's:
supervision changes how cells are scheduled, never what they compute.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.campaigns.engine import CampaignCellResult
from repro.campaigns.spec import GridCell
from repro.campaigns.supervisor import CampaignSupervisor

from interleave import SAMPLES, interleaved_medians

OVERHEAD_GATE = 1.10

#: The engine the bare pool's forked workers inherit (set before the
#: pool forks them).
_POOL_ENGINE: Optional[CampaignEngine] = None


def _run_parallel(engine: CampaignEngine,
                  cells: List[GridCell]) -> List[CampaignCellResult]:
    """Bare process-pool execution — the *unsupervised* reference.

    Campaign runs go through :class:`CampaignSupervisor`, which adds
    retries, timeouts and poison-cell quarantine on top of the same
    chunking; this is the zero-overhead baseline the gate compares
    against (one crashed worker here still aborts everything with
    ``BrokenProcessPool``).  Cells are chunked by acquisition key so a
    worker reuses its acquired population across the metrics of one
    (die count, variant) point.  Like the supervisor's, the pool's
    workers are forks that inherit ``engine`` and write through its
    store.
    """
    global _POOL_ENGINE
    chunks: Dict[tuple, List[int]] = {}
    for cell in cells:
        chunks.setdefault(cell.acquisition_key, []).append(cell.index)
    results: Dict[int, CampaignCellResult] = {}
    _POOL_ENGINE = engine
    try:
        with ProcessPoolExecutor(
                max_workers=min(engine.spec.workers, len(chunks)),
                mp_context=get_context("fork")) as pool:
            for chunk_results in pool.map(_run_cells_in_subprocess,
                                          chunks.values()):
                for cell_result in chunk_results:
                    results[cell_result.index] = cell_result
    finally:
        _POOL_ENGINE = None
    return [results[cell.index] for cell in cells]


def _run_cells_in_subprocess(indices: List[int]
                             ) -> List[CampaignCellResult]:
    """Worker entry point: run a chunk of cells on the inherited engine."""
    engine = _POOL_ENGINE
    grid = engine.spec.grid()
    chunk_results: List[CampaignCellResult] = []
    for index in indices:
        cell_result = engine.run_cell(grid[index])
        engine.record_cell_result(grid[index], cell_result)
        chunk_results.append(cell_result)
    return chunk_results


def _fig6_scale_spec() -> CampaignSpec:
    return CampaignSpec(
        name="supervisor-overhead", trojans=("HT1", "HT3"),
        die_counts=(6, 8), metrics=("local_maxima_sum", "l1"),
        num_pk_pairs=4, seed=2015, workers=2,
    )


def _rows(results: List[CampaignCellResult]):
    return [row.to_dict()
            for cell in sorted(results, key=lambda cell: cell.index)
            for row in cell.rows]


def test_supervised_run_overhead_within_10_percent(benchmark):
    spec = _fig6_scale_spec()
    cells = spec.grid()
    root = Path(tempfile.mkdtemp(prefix="bench_supervisor_"))
    stores = (root / f"store-{run}" for run in itertools.count())
    try:
        # Bare pool reference: the unsupervised executor.map path the
        # supervisor replaced, kept here for exactly this comparison.
        def bare():
            return _run_parallel(CampaignEngine(spec, store=next(stores)),
                                 cells)

        def supervised():
            engine = CampaignEngine(spec, store=next(stores))
            return list(CampaignSupervisor(engine).run(cells).values())

        medians, results, calls = interleaved_medians(bare, supervised)
        bare_seconds, supervised_seconds = medians
        assert _rows(results[1]) == _rows(results[0]), (
            "supervision must not change what the cells compute"
        )

        overhead = supervised_seconds / bare_seconds
        benchmark.extra_info["bare_pool_seconds"] = round(bare_seconds, 4)
        benchmark.extra_info["supervised_seconds"] = round(
            supervised_seconds, 4)
        benchmark.extra_info["overhead_factor"] = round(overhead, 3)
        benchmark.extra_info["gate_factor"] = OVERHEAD_GATE
        benchmark.extra_info["samples"] = SAMPLES
        benchmark.extra_info["calls_per_sample"] = {
            "bare": calls[0], "supervised": calls[1]}
        benchmark.extra_info["cells"] = len(cells)
        benchmark.extra_info["workers"] = spec.workers
        assert overhead <= OVERHEAD_GATE, (
            f"supervised run must stay within {OVERHEAD_GATE:.2f}x of the "
            f"bare pool (medians: bare {bare_seconds:.3f} s, supervised "
            f"{supervised_seconds:.3f} s, {overhead:.2f}x)"
        )

        # The timed contract is above; the benchmark records the
        # steady-state cost of one warm supervised run (scheduling +
        # store reads, no recompute) — the overhead floor.
        warm_engine = CampaignEngine(spec, store=root / "store-0")
        benchmark(lambda: CampaignSupervisor(warm_engine).run(cells))
    finally:
        shutil.rmtree(root, ignore_errors=True)
