"""Traced ``repro-ht`` entry point: layer probes around public functions.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 e2e_bench/tracer.py TRACE_DIR <repro-ht arguments...>

runs ``repro.cli.main(arguments)`` in this interpreter after wrapping
the public entry points of every layer (table :data:`PROBES`) with a
timer and counters.  Nothing in ``src/`` is modified: the wrappers are
installed at run time, in every module namespace that holds the
original function (``build_delay_annotation``, for instance, is also
bound by name in ``repro.measurement.dut``).

Times are inclusive wall seconds of the outermost call of each probe (a
re-entrant call is not counted twice).  The process writes its totals to
``TRACE_DIR/<pid>.json`` on exit.

Forked supervisor workers inherit the wrappers but not the parent's
memory, so their spans are *collected*: the worker entry point is
wrapped to reset the inherited totals when the worker starts and to
write the worker's own ``TRACE_DIR/<pid>.json`` when its loop ends.  The
benchmark sums every file of a phase.  Worker time therefore appears in
the layer totals (which can exceed the phase wall when workers overlap),
while ``trace.unattributed_s`` is computed from the main process alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional


class Recorder:
    """Per-process span and counter totals."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.values: Dict[str, float] = defaultdict(float)
        self.die_seeds: set = set()
        self._open: Dict[str, int] = defaultdict(int)
        self._depth = 0
        self._span_start = 0.0
        self.covered_s = 0.0

    def enter(self, seconds_name: str) -> Optional[float]:
        """Open a span; returns its start time if it is the outermost
        call of this probe, else ``None``."""
        now = time.perf_counter()
        if self._depth == 0:
            self._span_start = now
        self._depth += 1
        self._open[seconds_name] += 1
        return now if self._open[seconds_name] == 1 else None

    def leave(self, seconds_name: str, start: Optional[float]) -> None:
        now = time.perf_counter()
        self._open[seconds_name] -= 1
        if start is not None:
            self.values[seconds_name] += now - start
        self._depth -= 1
        if self._depth == 0:
            self.covered_s += now - self._span_start

    def dump(self, trace_dir: Path, role: str, wall_s: float = 0.0,
             covered_s: float = 0.0) -> None:
        payload = {
            "role": role,
            "values": dict(self.values),
            "die_seeds": sorted(self.die_seeds),
            "wall_s": wall_s,
            "covered_s": covered_s,
        }
        (trace_dir / f"{os.getpid()}.json").write_text(json.dumps(payload))


#: ``hook(recorder, args, kwargs, result, error)`` adds probe-specific
#: counts after each call (``error`` is the raised exception, if any).
Hook = Callable[[Recorder, tuple, dict, Any, Optional[BaseException]], None]


class Probe(NamedTuple):
    module: str
    attribute: str  # "function" or "Class.method"
    calls: Optional[str] = None  # counter of calls
    seconds: Optional[str] = None  # inclusive wall seconds (a span)
    hook: Optional[Hook] = None


def _count(name: str, amount: Callable[..., float]) -> Hook:
    def hook(rec, args, kwargs, result, error):
        if error is None:
            rec.values[name] += amount(args, kwargs, result)
    return hook


def _die_seed(rec, args, kwargs, result, error):
    rec.die_seeds.add(int(args[0].seed))


def _store_get(rec, args, kwargs, result, error):
    if error is None:
        rec.values["store.hits"] += 1
    elif isinstance(error, KeyError):
        rec.values["store.misses"] += 1
    elif type(error).__name__ == "StoreIntegrityError":
        # get_* quarantines a corrupt payload before raising.
        rec.values["store.misses"] += 1
        rec.values["store.quarantined"] += 1


def _store_contains(rec, args, kwargs, result, error):
    # ``key in store`` probes that answer "no" are misses the caller
    # fills by computing; "yes" is followed by a get_* (the hit).
    if error is None and not result:
        rec.values["store.misses"] += 1


def _cell_run(rec, args, kwargs, result, error):
    # A raising attempt is retried (or, after the last retry, becomes
    # a failed row), so failed attempts count as retries.
    if error is not None:
        rec.values["campaigns.retries"] += 1
        return
    rec.values["campaigns.cells_run"] += 1
    rec.values["campaigns.cell_busy_s"] += float(result.elapsed_s)


def _cell_resumed(rec, args, kwargs, result, error):
    if error is None and result is not None:
        rec.values["campaigns.cells_resumed"] += 1


def _campaign_failed_cells(rec, args, kwargs, result, error):
    if error is None:
        rec.values["campaigns.failed_cells"] += len(result.failed_cells())


def _headline(rec, args, kwargs, result, error):
    if error is not None:
        return
    gaps = [abs(row.false_negative_rate - row.paper_false_negative_rate)
            for row in result.rows
            if row.paper_false_negative_rate is not None]
    if gaps:
        rec.values["experiments.fn_gap_pp_sum"] += 100.0 * sum(gaps) / len(gaps)
        rec.values["experiments.fn_gap_samples"] += 1


_EXPERIMENT_DRIVERS = {
    "fig1_timing": "fig1", "fig2_staircase": "fig2", "fig3_delay": "fig3",
    "fig4_em_trace": "fig4", "fig5_em_compare": "fig5", "fig6_pv": "fig6",
    "fig7_model": "fig7", "table_ht_sizes": "table", "headline": "headline",
}

PROBES = [
    # fpga: golden synthesis / placement and per-die delay annotation.
    Probe("repro.fpga.design", "GoldenDesign.build",
          "fpga.golden_build_calls", "fpga.golden_build_s"),
    Probe("repro.fpga.annotation", "build_delay_annotation",
          "fpga.annotation_calls", "fpga.annotation_s"),
    # variation: intra-die offsets of every placed cell of one die.
    Probe("repro.variation.intra_die", "IntraDieVariation.offsets_for",
          "variation.offsets_for_calls", "variation.offsets_for_s",
          _die_seed),
    # trojan insertion and the netlist queries it makes.
    Probe("repro.trojan.insertion", "insert_trojan",
          "trojan.insert_calls", "trojan.insert_s"),
    Probe("repro.netlist.netlist", "Netlist.nets", "netlist.nets_calls"),
    # netlist kernels: compiled batch evaluation, toggle counting, the
    # compiled timing engine and the interpreted reference walk.
    Probe("repro.netlist.compiled", "CompiledNetlist.evaluate_batch",
          "netlist.evaluate_batch_calls", "netlist.evaluate_batch_s",
          _count("netlist.vectors_evaluated",
                 lambda args, kwargs, result: len(args[1]))),
    Probe("repro.netlist.compiled", "CompiledNetlist.toggle_counts",
          None, "netlist.toggle_counts_s"),
    Probe("repro.netlist.compiled", "CompiledTimingEngine.__init__",
          "netlist.timing_engine_builds", "netlist.timing_engine_build_s"),
    Probe("repro.netlist.netlist", "Netlist.evaluate",
          "netlist.interpreted_eval_calls", "netlist.interpreted_eval_s"),
    # measurement: EM acquisition (the three entry points that acquire
    # noisy traces; none calls another) and the clock-glitch delay meter.
    Probe("repro.measurement.em_simulator",
          "EMSimulator.acquire_many_batch_tensor",
          "measurement.em_acquire_calls", "measurement.em_acquire_s",
          _count("measurement.em_traces",
                 lambda args, kwargs, result: len(args[1]) * len(args[2]))),
    Probe("repro.measurement.em_simulator", "EMSimulator.acquire_batch_matrix",
          "measurement.em_acquire_calls", "measurement.em_acquire_s",
          _count("measurement.em_traces",
                 lambda args, kwargs, result: len(args[1]))),
    Probe("repro.measurement.em_simulator", "EMSimulator.acquire",
          "measurement.em_acquire_calls", "measurement.em_acquire_s",
          _count("measurement.em_traces", lambda args, kwargs, result: 1)),
    Probe("repro.measurement.delay_meter", "PathDelayMeter.measure",
          "measurement.delay_measure_calls", "measurement.delay_measure_s"),
    Probe("repro.measurement.delay_meter", "PathDelayMeter.measure_batch",
          "measurement.delay_measure_calls", "measurement.delay_measure_s"),
    Probe("repro.measurement.delay_meter", "PathDelayMeter.arrival_times_ps",
          None, "measurement.arrival_times_s"),
    Probe("repro.measurement.delay_meter",
          "PathDelayMeter.batch_arrival_times",
          None, "measurement.arrival_times_s"),
    # attacks: glitch-grid fault synthesis and coverage scoring.
    Probe("repro.attacks.glitch_grid", "synthesise_faulted_sweep",
          "attacks.faulted_sweep_calls", "attacks.faulted_sweep_s"),
    Probe("repro.attacks.glitch_grid", "device_fault_coverages",
          None, "attacks.coverage_s"),
    # analysis: EM population scoring, local maxima, DFA key recovery.
    Probe("repro.core.metrics", "LocalMaximaSumMetric.scores_matrix",
          None, "analysis.em_score_s"),
    Probe("repro.core.metrics", "L1TraceMetric.scores_matrix",
          None, "analysis.em_score_s"),
    Probe("repro.core.metrics", "MaxDifferenceMetric.scores_matrix",
          None, "analysis.em_score_s"),
    Probe("repro.analysis.batch", "sum_of_local_maxima_batch",
          None, "analysis.local_maxima_s"),
    Probe("repro.analysis.local_maxima", "sum_of_local_maxima",
          None, "analysis.local_maxima_s"),
    Probe("repro.analysis.dfa", "recover_last_round_key",
          None, "analysis.dfa_recover_s"),
    # store: writes (encode + atomic write + manifest) and reads.
    Probe("repro.store.artifact_store", "ArtifactStore.put_json",
          "store.put_calls", "store.put_s"),
    Probe("repro.store.artifact_store", "ArtifactStore.put_arrays",
          "store.put_calls", "store.put_s"),
    Probe("repro.store.artifact_store", "encode_json_bytes",
          hook=_count("store.put_bytes",
                      lambda args, kwargs, result: len(result))),
    Probe("repro.store.artifact_store", "encode_array_bytes",
          hook=_count("store.put_bytes",
                      lambda args, kwargs, result: len(result))),
    Probe("repro.store.artifact_store", "ArtifactStore.get_json",
          "store.get_calls", "store.get_s", _store_get),
    Probe("repro.store.artifact_store", "ArtifactStore.get_arrays",
          "store.get_calls", "store.get_s", _store_get),
    Probe("repro.store.artifact_store", "ArtifactStore.__contains__",
          hook=_store_contains),
    Probe("repro.store.artifact_store", "decode_json_bytes",
          hook=_count("store.get_bytes",
                      lambda args, kwargs, result: len(args[0]))),
    Probe("repro.store.artifact_store", "decode_array_bytes",
          hook=_count("store.get_bytes",
                      lambda args, kwargs, result: len(args[0]))),
    # campaigns: cell execution, resume hits and supervision.
    Probe("repro.campaigns.engine", "CampaignEngine.run_cell",
          hook=_cell_run),
    Probe("repro.campaigns.engine", "CampaignEngine.load_cell_result",
          hook=_cell_resumed),
    Probe("repro.campaigns.engine", "CampaignEngine.run",
          hook=_campaign_failed_cells),
] + [
    Probe(f"repro.experiments.{module}", "run",
          None, f"experiments.{name}_s",
          _headline if name == "headline" else None)
    for module, name in _EXPERIMENT_DRIVERS.items()
]


def _wrap(func: Callable, probe: Probe, rec: Recorder) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if probe.calls:
            rec.values[probe.calls] += 1
        start = rec.enter(probe.seconds) if probe.seconds else None
        error = None
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as raised:
            error, result = raised, None
            raise
        finally:
            if probe.seconds:
                rec.leave(probe.seconds, start)
            if probe.hook is not None:
                probe.hook(rec, args, kwargs, result, error)
    return wrapper


def _supervisor_wrapper(func: Callable, rec: Recorder) -> Callable:
    """``CampaignSupervisor.run``: a span plus the worker capacity
    (run seconds x workers used) that worker utilisation divides by."""
    @functools.wraps(func)
    def wrapper(self, cells, *args, **kwargs):
        chunks = {cell.acquisition_key for cell in cells}
        workers = max(1, min(self.policy.workers, len(chunks)))
        start = time.perf_counter()
        rec.enter("campaigns.supervisor_run_s")
        try:
            return func(self, cells, *args, **kwargs)
        finally:
            rec.leave("campaigns.supervisor_run_s", start)
            rec.values["campaigns.supervisor_capacity_s"] += (
                (time.perf_counter() - start) * workers)
    return wrapper


def _worker_wrapper(func: Callable, rec: Recorder,
                    trace_dir: Path) -> Callable:
    """Supervisor worker entry point: collect the worker's own spans."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        rec.reset()
        try:
            return func(*args, **kwargs)
        finally:
            rec.dump(trace_dir, role="worker")
    return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _install_one(module_name: str, attribute: str,
                 make: Callable[[Callable], Callable]) -> None:
    module = importlib.import_module(module_name)
    if "." not in attribute:
        original = getattr(module, attribute)
        _replace_everywhere(original, make(original))
        return
    class_name, method = attribute.split(".")
    owner = getattr(module, class_name)
    raw = owner.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(owner, method, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, method, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, method, make(raw))


def install(rec: Recorder, trace_dir: Path) -> None:
    """Install every layer probe, recording into ``rec``; call once."""
    for probe in PROBES:
        _install_one(probe.module, probe.attribute,
                     lambda func, probe=probe: _wrap(func, probe, rec))
    _install_one("repro.campaigns.supervisor", "CampaignSupervisor.run",
                 lambda func: _supervisor_wrapper(func, rec))
    _install_one("repro.campaigns.supervisor", "_worker_main",
                 lambda func: _worker_wrapper(func, rec, trace_dir))


def main(argv) -> int:
    trace_dir = Path(argv[0])
    trace_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    import repro.cli

    rec = Recorder()
    install(rec, trace_dir)
    imported = time.perf_counter()
    try:
        return repro.cli.main(list(argv[1:]))
    finally:
        end = time.perf_counter()
        # The import of the CLI is the "cli import" layer's span.
        rec.dump(trace_dir, role="main", wall_s=end - start,
                 covered_s=rec.covered_s + (imported - start))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
