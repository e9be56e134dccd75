"""End-to-end benchmark of the ``repro-ht`` command line.

Run from the root of a checkout::

    python3 e2e_bench/run.py --workload em_campaign --seed 0 --seconds 28 --trace 0

Each workload is a closed loop: one client runs the workload's phases
(``repro-ht`` subprocesses) one after another, each starting only after
the previous one finished, on a fresh artifact store per iteration.
Iterations repeat until ``--seconds`` are used up; every end-to-end
metric is the median over the iterations (the resume phase runs twice
per iteration), and every time is scaled by the host-speed probe
(``PROBE_REF_S``).  ``--trace 1`` instead runs
one untraced and one traced iteration (every subprocess through
``tracer.py``) and reports the per-layer totals of the traced one.

Every phase output is compared with the reference pinned in
``reference.json`` (``--pin`` regenerates it).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (phases) and ``metrics``.  See README.md for the workloads,
the metrics and the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".e2e_bench_work"
REFERENCE = BENCH_DIR / "reference.json"
TRACER = BENCH_DIR / "tracer.py"

#: Campaign seeds the benchmark seed maps onto (``seed % len``).  Each
#: has pinned outputs, and on each no operation of any workload fails:
#: the DFA of ``attack recover`` commits to no wrong key byte, and
#: every ``experiments --quick`` shape check passes (the first 16 such
#: seeds from 0 up).
SEED_POOL = (0, 2, 4, 6, 9, 13, 16, 19, 21, 23, 26, 28, 30, 31, 32, 34)
#: Untimed set-ups per run; ``setup_s`` is their median.  Each costs
#: about 3.5 s of bytecode compilation, so more would crowd out the
#: measured iterations.
SETUP_REPEATS = 2
#: Back-to-back runs of the resume phase per measured iteration.  A
#: resume phase is about one second, mostly interpreter start-up and
#: imports, so a single sample per iteration is the noisiest metric;
#: a third run would cost the run one cold and one rescore sample.
RESUME_REPEATS = 2
#: Every reported time is scaled to a host on which ``host_probe_s``
#: takes this long: time x PROBE_REF_S / (mean probe of the run).  The
#: probe runs before every timed phase.  On a shared VM the host's speed
#: drifts by 20-40 % over tens of seconds, a drift that a median over
#: one run cannot average out but that moves the probe with the phases.
#: The mean, not the median, of the probes estimates the host's speed
#: averaged over the run, which is what the phases' times average over.
PROBE_REF_S = 0.22
#: Every subprocess of a run must end within this many seconds of the
#: start; a phase still running then is killed and counted as failed.
RUN_BUDGET_S = 165.0
TROJANS = ("HT1", "HT2", "HT3")


class Command(NamedTuple):
    """One ``repro-ht`` invocation and how its output is checked."""

    args: List[str]
    check: str  # "campaign" | "recover" | "experiments"
    out: Optional[Path] = None


class Phase(NamedTuple):
    name: str  # "cold" | "rescore" | "resume"
    commands: List[Command]


def _repeat(flag: str, values) -> List[str]:
    return [item for value in values for item in (flag, str(value))]


def _campaign(args: List[str], out: Path) -> Command:
    return Command(args + ["--out", str(out)], "campaign", out)


def em_campaign(seed: int, store: Path, out: Path, tiny: bool,
                workers: int) -> List[Phase]:
    base = (["campaign", "run"] + _repeat("--trojan", TROJANS)
            + _repeat("--dies", (8, 16) if tiny else (32, 128))
            + ["--plaintexts", "2" if tiny else "16", "--workers", "1",
               "--seed", str(seed), "--store", str(store)]
            + _repeat("--metric", ("local_maxima_sum", "l1")))
    rescore = base + ["--metric", "max_difference"]
    return [Phase("cold", [_campaign(base, out / "cold")]),
            Phase("rescore", [_campaign(rescore, out / "rescore")]),
            Phase("resume", [_campaign(rescore, out / "resume")])]


def delay_fault_campaign(seed: int, store: Path, out: Path, tiny: bool,
                         workers: int) -> List[Phase]:
    # The recover command keys its fault sweep exactly like the 16-die
    # fault_coverage cell, so it reads the sweep the cold phase stored.
    base = (["campaign", "run"] + _repeat("--trojan", TROJANS)
            + _repeat("--dies", (4, 16) if tiny else (8, 16))
            + ["--plaintexts", "8", "--workers", str(workers),
               "--seed", str(seed), "--store", str(store)]
            + _repeat("--metric", ("delay_max_difference", "fault_coverage")))
    rescore = base + ["--metric", "delay_mean_pair_max"]
    recover = (["attack", "recover"] + _repeat("--trojan", TROJANS)
               + ["--dies", "16", "--plaintexts", "8", "--seed", str(seed),
                  "--store", str(store)])
    return [Phase("cold", [_campaign(base, out / "cold")]),
            Phase("rescore", [_campaign(rescore, out / "rescore"),
                              Command(recover, "recover")]),
            Phase("resume", [_campaign(rescore, out / "resume")])]


def paper_suite(seed: int, store: Path, out: Path, tiny: bool,
                workers: int) -> List[Phase]:
    # No campaign engine: the rerun (and the run after it) reads the
    # shared population study back from the store.  The quick profile
    # (same code paths, fewer dies and pairs) is already small, so
    # there is no tiny variant.
    args = ["experiments", "--quick", "--seed", str(seed),
            "--store", str(store)]
    return [Phase(name, [Command(list(args), "experiments")])
            for name in ("cold", "rescore", "resume")]


WORKLOADS = {
    "em_campaign": em_campaign,
    "delay_fault_campaign": delay_fault_campaign,
    "paper_suite": paper_suite,
}

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "rescore_s": "s",
                    "resume_s": "s", "peak_rss_mb": "MB"}

# -- subprocesses --------------------------------------------------------------------


class Finished(NamedTuple):
    wall_s: float
    rss_mb: float
    exit_code: int
    output: str


def _kill_group(pid: int) -> None:
    """SIGKILL a phase and every process it started (its session)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # it ended just before the deadline


def run_process(argv: List[str], env: Dict[str, str], log: Path,
                timeout_s: float) -> Finished:
    """Run one subprocess to completion; peak RSS comes from ``wait4``.

    ``wait4`` reports the child's own peak together with that of every
    descendant it reaped (the forked supervisor workers), and nothing
    from earlier children — unlike ``RUSAGE_CHILDREN``, a running
    maximum over every child so far.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as sink:
        start = time.perf_counter()
        process = subprocess.Popen(argv, stdout=sink,
                                   stderr=subprocess.STDOUT, env=env,
                                   cwd=ROOT, start_new_session=True)
        killer = threading.Timer(max(1.0, timeout_s), _kill_group,
                                 (process.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return Finished(wall, usage.ru_maxrss / 1024.0, process.returncode,
                    log.read_text(errors="replace"))


def subprocess_env(pycache: Path) -> Dict[str, str]:
    """The one environment every subprocess gets."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(pycache),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


# -- output checks -------------------------------------------------------------------

_KEY_BYTE = re.compile(r"key\[\s*(\d+)\] = 0x([0-9A-F]{2}) \((\w+)\)")


def extract(command: Command, output: str):
    """The part of a command's output the reference pins.

    Returns ``(fingerprint, failed_cells)``.
    """
    if command.check == "campaign":
        payload = json.loads((command.out / "campaign.json").read_text())
        rows = [[row["num_dies"], row["metric"], row["trojan"], row["mu"],
                 row["sigma"], row["false_negative_rate"]]
                for cell in payload["cells"] for row in cell["rows"]]
        failed = [cell["index"] for cell in payload["cells"]
                  if cell["status"] != "ok"]
        return rows, failed
    if command.check == "recover":
        recovered = [[int(pos), int(value, 16), verdict]
                     for pos, value, verdict in _KEY_BYTE.findall(output)]
        verdicts = [line.strip() for line in output.splitlines()
                    if line.startswith(("infected ", "all recovered"))]
        return [recovered, verdicts], []
    lines = output.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.startswith("experiment "))
    begin = lines[header].index("measured (this reproduction)")
    end = lines[header].index("shape ok")
    return [line[begin:end].rstrip() for line in lines[header + 2:]
            if line.strip()], []


# -- one iteration -------------------------------------------------------------------


class Context(NamedTuple):
    workload: str
    campaign_seed: int
    tiny: bool
    workers: int
    env: Dict[str, str]
    reference: Optional[dict]  # None while pinning
    started: float  # perf_counter at program start


def host_probe_s() -> float:
    """Seconds a fixed slice of interpreter and NumPy work takes now.

    Nothing of the program under test runs here, so a change to the
    program cannot move it; only the host's speed does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    values = np.random.default_rng(0).random(1_000_000)
    for _ in range(6):
        np.sort(values)
    return time.perf_counter() - start


def run_iteration(ctx: Context, directory: Path, trace: bool = False,
                  resume_repeats: int = 1) -> dict:
    """Run the workload's phases on a fresh store, then fsck it.

    The resume phase runs ``resume_repeats`` times in a row: it is the
    shortest phase, and it leaves the store as it found it.
    """
    store = directory / "store"
    phases = WORKLOADS[ctx.workload](ctx.campaign_seed, store,
                                     directory / "out", ctx.tiny,
                                     ctx.workers)
    expected = None
    if ctx.reference is not None:
        expected = (ctx.reference.get(ctx.workload, {})
                    .get("tiny" if ctx.tiny else "full", {})
                    .get(str(ctx.campaign_seed)))
    results = {"walls": {}, "rss_mb": 0.0, "phases": [], "failed": [],
               "outputs": {}, "trace_dirs": [], "notes": [], "probes": []}
    for phase in phases:
        repeats = resume_repeats if phase.name == "resume" else 1
        for _ in range(repeats):
            results["probes"].append(host_probe_s())
            wall, ok, outputs = 0.0, True, []
            for index, command in enumerate(phase.commands):
                argv = [sys.executable, "-m", "repro.cli"] + command.args
                if trace:
                    trace_dir = directory / "trace" / f"{phase.name}-{index}"
                    results["trace_dirs"].append(trace_dir)
                    argv = [sys.executable, str(TRACER), str(trace_dir)] \
                        + command.args
                remaining = RUN_BUDGET_S - (time.perf_counter()
                                            - ctx.started)
                log = directory / "logs" / f"{phase.name}-{index}.log"
                done = run_process(argv, ctx.env, log, remaining)
                wall += done.wall_s
                results["rss_mb"] = max(results["rss_mb"], done.rss_mb)
                if done.exit_code != 0:
                    ok = False
                    results["notes"].append(
                        f"{phase.name}: `{' '.join(command.args[:2])}` "
                        f"exited {done.exit_code}: {done.output[-400:]}")
                    continue
                try:
                    fingerprint, failed_cells = extract(command, done.output)
                except (OSError, ValueError, KeyError,
                        StopIteration) as error:
                    ok = False
                    results["notes"].append(
                        f"{phase.name}: unreadable output ({error!r})")
                    continue
                if failed_cells:
                    ok = False
                    results["notes"].append(
                        f"{phase.name}: failed cells {failed_cells}")
                outputs.append(fingerprint)
            if ok and ctx.reference is not None:
                if expected is None or expected.get(phase.name) != outputs:
                    ok = False
                    results["notes"].append(
                        f"{phase.name}: output differs from the pinned "
                        f"reference for campaign seed {ctx.campaign_seed}")
            results["walls"].setdefault(phase.name, []).append(wall)
            results["outputs"][phase.name] = outputs
            results["phases"].append(phase.name)
            if not ok:
                results["failed"].append(phase.name)
    remaining = RUN_BUDGET_S - (time.perf_counter() - ctx.started)
    fsck = run_process([sys.executable, "-m", "repro.cli", "store", "fsck",
                        str(store)], ctx.env, directory / "logs" / "fsck.log",
                       remaining)
    if fsck.exit_code != 0:
        # One fsck covers the whole iteration, so no phase is cleared.
        results["notes"].append(f"store fsck: {fsck.output[-400:]}")
        results["failed"] = list(results["phases"])
    return results


# -- set-up --------------------------------------------------------------------------


def setup(workload: str, campaign_seed: int, tiny: bool, workers: int,
          directory: Path) -> tuple:
    """Scratch directory, the seeded spec, and the first-ever CLI call
    with a fresh bytecode cache.  Returns ``(seconds, env)``."""
    start = time.perf_counter()
    directory.mkdir(parents=True)
    phases = WORKLOADS[workload](campaign_seed, directory / "store",
                                 directory / "out", tiny, workers)
    (directory / "spec.json").write_text(json.dumps(
        [[phase.name, [command.args for command in phase.commands]]
         for phase in phases], indent=1))
    env = subprocess_env(directory / "pycache")
    done = run_process([sys.executable, "-m", "repro.cli", "--help"], env,
                       directory / "first-call.log", RUN_BUDGET_S)
    if done.exit_code != 0:
        raise RuntimeError(f"first repro-ht call failed: {done.output}")
    return time.perf_counter() - start, env


# -- traced metrics ------------------------------------------------------------------

PER_LAYER_UNITS = {
    "import.repro_cli_s": "s", "import.scipy_loaded": "flag",
    "fpga.golden_build_calls": "count", "fpga.golden_build_s": "s",
    "fpga.annotation_calls": "count", "fpga.annotation_s": "s",
    "variation.offsets_for_calls": "count", "variation.offsets_for_s": "s",
    "variation.unique_die_ratio": "1",
    "trojan.insert_calls": "count", "trojan.insert_s": "s",
    "netlist.nets_calls": "count",
    "netlist.evaluate_batch_calls": "count",
    "netlist.vectors_evaluated": "count", "netlist.evaluate_batch_s": "s",
    "netlist.toggle_counts_s": "s", "netlist.timing_engine_builds": "count",
    "netlist.timing_engine_build_s": "s",
    "netlist.interpreted_eval_calls": "count",
    "netlist.interpreted_eval_s": "s",
    "measurement.em_acquire_calls": "count", "measurement.em_traces": "count",
    "measurement.em_acquire_s": "s", "measurement.em_us_per_trace": "us",
    "measurement.delay_measure_calls": "count",
    "measurement.delay_measure_s": "s", "measurement.arrival_times_s": "s",
    "attacks.faulted_sweep_calls": "count", "attacks.faulted_sweep_s": "s",
    "attacks.coverage_s": "s",
    "analysis.em_score_s": "s", "analysis.local_maxima_s": "s",
    "analysis.dfa_recover_s": "s",
    "store.put_calls": "count", "store.put_bytes": "bytes",
    "store.put_s": "s", "store.get_calls": "count", "store.hits": "count",
    "store.misses": "count", "store.get_bytes": "bytes", "store.get_s": "s",
    "store.quarantined": "count",
    "campaigns.cells_run": "count", "campaigns.cells_resumed": "count",
    "campaigns.cell_busy_s": "s", "campaigns.supervisor_run_s": "s",
    "campaigns.worker_utilisation": "1", "campaigns.retries": "count",
    "campaigns.failed_cells": "count",
    **{f"experiments.{name}_s": "s"
       for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "table", "headline")},
    "experiments.fn_gap_pp": "pp",
    "trace.overhead_ratio": "1", "trace.unattributed_s": "s",
}


def layer_metrics(trace_dirs: List[Path], untraced_wall: float,
                  traced_wall: float, import_probe: dict) -> Dict[str, float]:
    """Sum the per-process trace dumps of one traced iteration."""
    totals: Dict[str, float] = {}
    die_seeds = set()
    worker_busy = unattributed = 0.0
    for trace_dir in trace_dirs:
        for dump_path in sorted(trace_dir.glob("*.json")):
            dump = json.loads(dump_path.read_text())
            for name, value in dump["values"].items():
                totals[name] = totals.get(name, 0.0) + value
            die_seeds.update(dump["die_seeds"])
            if dump["role"] == "worker":
                worker_busy += dump["values"].get("campaigns.cell_busy_s", 0)
            else:
                unattributed += dump["wall_s"] - dump["covered_s"]
    metrics = {name: float(totals.get(name, 0.0)) for name in PER_LAYER_UNITS}
    offsets_calls = totals.get("variation.offsets_for_calls", 0.0)
    metrics["variation.unique_die_ratio"] = (
        len(die_seeds) / offsets_calls if offsets_calls else 0.0)
    traces = totals.get("measurement.em_traces", 0.0)
    metrics["measurement.em_us_per_trace"] = (
        1e6 * totals.get("measurement.em_acquire_s", 0.0) / traces
        if traces else 0.0)
    capacity = totals.get("campaigns.supervisor_capacity_s", 0.0)
    metrics["campaigns.worker_utilisation"] = (
        worker_busy / capacity if capacity else 0.0)
    samples = totals.get("experiments.fn_gap_samples", 0.0)
    metrics["experiments.fn_gap_pp"] = (
        totals.get("experiments.fn_gap_pp_sum", 0.0) / samples
        if samples else 0.0)
    metrics["import.repro_cli_s"] = import_probe["seconds"]
    metrics["import.scipy_loaded"] = float(import_probe["scipy"])
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.unattributed_s"] = unattributed
    return metrics


_IMPORT_PROBE = ("import json, sys, time; start = time.perf_counter(); "
                 "import repro.cli; print(json.dumps({'seconds': "
                 "time.perf_counter() - start, 'scipy': 'scipy' in "
                 "sys.modules}))")


# -- entry point ---------------------------------------------------------------------


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def _report(iterations: List[dict]) -> tuple:
    attempted = sum(len(it["phases"]) for it in iterations)
    failed = sum(len(it["failed"]) for it in iterations)
    for it in iterations:
        for note in it["notes"]:
            print(f"  failure: {note}")
    return attempted, failed


def measure(args, ctx_base: dict, work: Path) -> int:
    setups = []
    for index in range(SETUP_REPEATS):
        seconds, env = setup(args.workload, ctx_base["campaign_seed"],
                             args.tiny, ctx_base["workers"],
                             work / f"setup{index}")
        setups.append(seconds)
    ctx = Context(env=env, **ctx_base)
    iterations: List[dict] = []
    begin = time.perf_counter()
    while True:
        iterations.append(run_iteration(ctx, work / f"iter{len(iterations)}",
                                        resume_repeats=RESUME_REPEATS))
        shutil.rmtree(work / f"iter{len(iterations) - 1}" / "store",
                      ignore_errors=True)
        # Start another iteration only if it should end at most half an
        # iteration past the measuring time, so a run measures about
        # --seconds on average, and the run budget has room for it.
        elapsed = time.perf_counter() - begin
        per_iteration = elapsed / len(iterations)
        if (elapsed + per_iteration / 2 > args.seconds
                or time.perf_counter() - ctx.started + 2 * per_iteration
                > RUN_BUDGET_S):
            break
    attempted, failed = _report(iterations)
    probes = [probe for it in iterations for probe in it["probes"]]
    probe_s = statistics.mean(probes)
    scale = PROBE_REF_S / probe_s
    samples = {"setup_s": setups}
    for phase in ("cold", "rescore", "resume"):
        samples[f"{phase}_s"] = [wall for it in iterations
                                 for wall in it["walls"][phase]]
    raw = {name: statistics.median(values)
           for name, values in samples.items()}
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(it["rss_mb"]
                                               for it in iterations)
    print(f"workload {args.workload}: campaign seed {ctx.campaign_seed}, "
          f"{len(iterations)} iteration(s), {len(setups)} set-up(s); host "
          f"probe {probe_s:.4f} s (mean of {len(probes)}), times scaled "
          f"by {scale:.3f}")
    for name, unit in END_TO_END_UNITS.items():
        if name in raw:
            print(f"  {name:<12} {metrics[name]:10.4f} {unit:<3} (median of "
                  f"{len(samples[name])}; unscaled {raw[name]:.4f})")
        else:
            print(f"  {name:<12} {metrics[name]:10.4f} {unit:<3} (median of "
                  f"{len(iterations)})")
    print(f"  {'failed_ratio':<12} {failed / attempted:10.4f} 1   "
          f"({failed} of {attempted} phases)")
    # Unscaled samples in the order they were taken, for offline checks.
    samples["probe_s"] = probes
    print("  samples " + json.dumps(
        {name: [round(value, 4) for value in values]
         for name, values in samples.items()}))
    print(_result_line(failed == 0, attempted, failed, metrics,
                       END_TO_END_UNITS))
    return 0


def trace_run(args, ctx_base: dict, work: Path) -> int:
    _, env = setup(args.workload, ctx_base["campaign_seed"], args.tiny,
                   ctx_base["workers"], work / "setup")
    ctx = Context(env=env, **ctx_base)
    untraced = run_iteration(ctx, work / "untraced")
    traced = run_iteration(ctx, work / "traced", trace=True)
    probe = run_process([sys.executable, "-c", _IMPORT_PROBE], env,
                        work / "import.log", RUN_BUDGET_S)
    attempted, failed = _report([untraced, traced])
    if probe.exit_code != 0:
        print(f"  failure: import probe: {probe.output[-400:]}")
        return 1
    metrics = layer_metrics(traced["trace_dirs"],
                            sum(map(sum, untraced["walls"].values())),
                            sum(map(sum, traced["walls"].values())),
                            json.loads(probe.output.splitlines()[-1]))
    print(f"workload {args.workload}: campaign seed {ctx.campaign_seed}, "
          "one traced iteration")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<34} {metrics[name]:14.4f} {unit}")
    print(_result_line(failed == 0, attempted, failed, metrics,
                       PER_LAYER_UNITS))
    return 0


def pin(args, ctx_base: dict, work: Path) -> int:
    """Record the reference outputs of every pool seed not yet pinned.

    Entries of seeds no longer in the pool are dropped; delete a
    workload's entries to re-pin it after a deliberate numeric change.
    """
    _, env = setup(args.workload, SEED_POOL[0], args.tiny,
                   ctx_base["workers"], work / "setup")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
        else {}
    pinned = reference.setdefault(args.workload, {}).setdefault(
        "tiny" if args.tiny else "full", {})
    for seed in list(pinned):
        if int(seed) not in SEED_POOL:
            del pinned[seed]
    failures = 0
    for campaign_seed in SEED_POOL:
        if str(campaign_seed) in pinned:
            continue
        ctx = Context(**dict(ctx_base, campaign_seed=campaign_seed,
                             reference=None, started=time.perf_counter()),
                      env=env)
        result = run_iteration(ctx, work / f"pin{campaign_seed}")
        if result["failed"]:
            print(f"campaign seed {campaign_seed}: {result['notes']}")
            failures += 1
            continue
        pinned[str(campaign_seed)] = result["outputs"]
        print(f"campaign seed {campaign_seed}: pinned", flush=True)
    # One line per (workload, size, campaign seed) keeps diffs readable.
    lines = []
    for workload, sizes in sorted(reference.items()):
        size_lines = []
        for size, seeds in sorted(sizes.items()):
            seed_lines = [f"   {json.dumps(seed)}: {json.dumps(outputs)}"
                          for seed, outputs in sorted(
                              seeds.items(), key=lambda item: int(item[0]))]
            size_lines.append(f"  {json.dumps(size)}: {{\n"
                              + ",\n".join(seed_lines) + "\n  }")
        lines.append(f" {json.dumps(workload)}: {{\n"
                     + ",\n".join(size_lines) + "\n }")
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids (smoke tests); same phases")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="pinned reference outputs (JSON)")
    parser.add_argument("--pin", action="store_true",
                        help="record the reference outputs of every pool "
                             "seed instead of measuring")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the "
              "root of a repro-ht checkout", file=sys.stderr)
        return 2
    # Workers x BLAS threads (1) must not exceed the cores available.
    workers = max(1, min(2, len(os.sched_getaffinity(0))))
    reference = None
    if not args.pin:
        if not args.reference.is_file():
            print(f"error: reference {args.reference} is missing",
                  file=sys.stderr)
            return 2
        reference = json.loads(args.reference.read_text())
    ctx_base = dict(workload=args.workload,
                    campaign_seed=SEED_POOL[args.seed % len(SEED_POOL)],
                    tiny=args.tiny, workers=workers, reference=reference,
                    started=started)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.pin:
            return pin(args, ctx_base, work)
        if args.trace:
            return trace_run(args, ctx_base, work)
        return measure(args, ctx_base, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
