"""One implementation per operation in the shipped package.

The serial loops and interpreted walks the batched kernels are pinned
against live in ``tests/oracles/``; ``src/`` keeps exactly one netlist
kernel, one timing path, one EM trace-synthesis core
(``EMSimulator._acquire_grid``), one trojan-activity path
(``encryption_activity_counts``), one array-payload codec with one
store read-through, one keying site for stored artifacts
(``CampaignEngine._store_key``) and one Sec. V population study
(``CampaignEngine.population_study``).  These checks keep it that way:
no oracle is redefined under ``src/``, nothing there imports the
removed backend seam, bitslice kernel or interpreted timing engine,
every acquisition entry point is a view of the one core, the paper's
delay figures run without a single interpreted netlist evaluation, and
only the engine keys artifacts and scores the Sec. V population.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Names that exist only as test oracles (or not at all any more).
ORACLE_ONLY_NAMES = {
    "TimingEngine",
    "TwoVectorResult",
    "two_vector_result",
    "measure_pair",
    "pair_transitions",
    "scores_serial",
    "roc_curve_serial",
    "dfa_key_scores_serial",
    "faulted_bits_population_serial",
    "acquire_population_traces_serial",
    "acquire_population_traces_stimuli_serial",
    "average_stimulus_traces",
    "evaluate_interpreted",
    "encryption_activity_interpreted",
    "BitslicedNetlist",
    "pack_bits",
    "unpack_words",
    # Serial EM synthesis and the per-encryption trojan activity.
    "noiseless_trace",
    "host_cycle_activities",
    "trojan_cycle_activities",
    "acquire_many",
    "acquire_serial",
    "oscilloscope_acquire",
    "acquire_many_batch",
    # Per-trace noise draws and the amplifier copy the in-place
    # acquisition pass replaced.
    "sample_setup_perturbation",
    "sample_averaged",
    "amplify",
    "round_activity",
    "encryption_activity",
    "netlist_toggle_counts",
    "_netlist_toggle_counts",
    "_batched_toggle_counts",
    "TrojanActivity",
    "NO_ACTIVITY",
    # The activity caches.
    "clear_caches",
    "_cache_insert",
    "HOST_ACTIVITY_CACHE_ENTRIES",
    "TROJAN_ACTIVITY_CACHE_ENTRIES",
    "host_activity_cache_entries",
    "trojan_activity_cache_entries",
    "_host_activity_cache",
    "_trojan_activity_cache",
    # Serial delay scorers.
    "DELAY_METRIC_SCORERS",
    "build_delay_scorer",
    # Trace-list payload packers and their per-kind unpack adapters;
    # every tensor artifact goes through the one group codec.
    "pack_population_traces",
    "unpack_population_traces",
    "_pack_trace_group",
    "_unpack_trace_group",
    "pack_delay_differences",
    "unpack_delay_differences",
    "pack_fault_sweep",
    "unpack_fault_sweep",
    "_unpack_delay_study",
    "_unpack_fault_sweep",
    # The unsupervised process-pool reference of the supervisor gate.
    "_run_parallel",
    "_run_cells_in_subprocess",
    # The Sec. V study entry points besides the campaign engine's, and
    # the EMTrace view of the population (a test helper now).
    "run_population_em_study",
    "acquire_population_traces",
    "_shared_population_study",
    # The per-kind key builders and the engine's key helpers; every key
    # is built by ``CampaignEngine._store_key``.
    "population_traces_key",
    "delay_differences_key",
    "fault_sweep_key",
    "infected_summary_key",
    "cell_result_key",
    "_population_store_key",
    "_fault_sweep_store_key",
    "_cell_result_store_key",
}

#: The acquisition entry points ``e2e_bench/tracer.py`` wraps by name.
ACQUISITION_VIEWS = ("acquire", "acquire_batch_matrix",
                     "acquire_many_batch_tensor")

REMOVED_MODULES = ("repro.backend", "repro.netlist.bitslice")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield path, ".".join(parts), ast.parse(path.read_text(), str(path))


def _absolute(module: str, path: Path, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    package = module.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[:len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _defined_names(node: ast.AST):
    """Names a definition or assignment node binds (attributes included)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.append(sub.attr)
    return names


def test_no_oracle_is_defined_under_src():
    defined = []
    for path, _, tree in _modules():
        for node in ast.walk(tree):
            for name in _defined_names(node):
                if name in ORACLE_ONLY_NAMES:
                    defined.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                   f"{name}")
    assert not defined, defined


def _em_simulator_methods():
    path = SRC / "repro" / "measurement" / "em_simulator.py"
    tree = ast.parse(path.read_text(), str(path))
    (simulator,) = [node for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name == "EMSimulator"]
    return {node.name: node for node in simulator.body
            if isinstance(node, ast.FunctionDef)}


def test_every_acquisition_view_calls_the_one_core_once():
    """Each traced entry point calls ``self._acquire_grid`` and none
    calls another, so the tracer counts every acquisition exactly once."""
    methods = _em_simulator_methods()
    for name in ACQUISITION_VIEWS:
        called = [node.func.attr for node in ast.walk(methods[name])
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "self"]
        assert called.count("_acquire_grid") == 1, (name, called)
        assert not set(called) & set(ACQUISITION_VIEWS), (name, called)
    core_calls = {node.func.attr for node in ast.walk(methods["_acquire_grid"])
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)}
    assert not core_calls & set(ACQUISITION_VIEWS), core_calls


def test_serial_acquisition_and_activity_paths_are_gone():
    import inspect

    from repro.measurement.em_simulator import EMSimulator
    from repro.measurement.oscilloscope import Oscilloscope
    from repro.trojan.base import HardwareTrojan
    from repro.trojan.combinational import CombinationalTrojan
    from repro.trojan.sequential import SequentialTrojan

    for name in ("noiseless_trace", "host_cycle_activities",
                 "trojan_cycle_activities", "acquire_many",
                 "acquire_many_batch", "clear_caches"):
        assert not hasattr(EMSimulator, name), name
    assert not hasattr(Oscilloscope, "acquire")
    for trojan_class in (HardwareTrojan, CombinationalTrojan,
                         SequentialTrojan):
        for name in ("round_activity", "encryption_activity"):
            assert not hasattr(trojan_class, name), (trojan_class, name)
    assert list(inspect.signature(
        EMSimulator.batch_noiseless_traces_many).parameters) == \
        ["self", "duts", "plaintexts", "key"]
    assert "encryption_index" not in inspect.signature(
        EMSimulator.acquire).parameters
    assert not [name for name in vars(EMSimulator())
                if "cache" in name]


def test_src_imports_no_removed_kernel():
    offending = []
    for path, module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(module, path, node)
                targets = [(source, alias.name) for alias in node.names]
                targets += [(f"{source}.{alias.name}", None)
                            for alias in node.names]
            else:
                continue
            for target, name in targets:
                if target.startswith(REMOVED_MODULES) \
                        or name == "TimingEngine":
                    offending.append(f"{path.relative_to(SRC)}:"
                                     f"{node.lineno} {target} {name or ''}")
    assert not offending, offending
    assert not (SRC / "repro" / "backend").exists()
    assert not (SRC / "repro" / "netlist" / "bitslice.py").exists()


@pytest.mark.parametrize("driver", ["fig1_timing", "fig2_staircase",
                                    "fig3_delay"])
def test_delay_figures_make_no_interpreted_evaluation(monkeypatch, driver):
    import importlib

    from repro.experiments.config import ExperimentConfig
    from repro.netlist.netlist import Netlist

    calls = []
    original = Netlist.evaluate

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Netlist, "evaluate", counting)
    module = importlib.import_module(f"repro.experiments.{driver}")
    module.run(ExperimentConfig.fast())
    assert calls == []


def test_payloads_go_through_the_one_codec_and_read_through():
    import dataclasses
    import inspect

    from repro.campaigns.engine import CampaignEngine
    from repro.core.pipeline import (
        PopulationEMStudyResult,
        PopulationTraceTensors,
    )
    from repro.experiments import fig6_pv, headline

    assert not hasattr(PopulationTraceTensors, "from_traces")
    # The study is computed from a grid cell alone (no injected traces
    # or area fractions) and carries the population as tensors.
    assert list(inspect.signature(
        CampaignEngine.population_study).parameters) == ["self", "cell"]
    assert [field.name for field in dataclasses.fields(
        PopulationEMStudyResult)] == ["reference", "tensors",
                                      "characterisations",
                                      "trojan_area_fractions"]
    for driver in (fig6_pv, headline):
        assert list(inspect.signature(driver.run).parameters) == \
            ["config", "engine"], driver
    for name in ("_run_parallel", "_run_cells_in_subprocess"):
        assert not hasattr(CampaignEngine, name), name
    # Array payloads are loaded and put only by the one read-through.
    offending = [f"{path.relative_to(SRC)}:{node.lineno} {node.attr}"
                 for path, module, tree in _modules()
                 if not module.startswith("repro.store")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("load_arrays", "put_arrays")]
    assert not offending, offending


def _functions_calling(name: str):
    """``(path, function)`` of every function under ``src/`` that calls
    ``name`` (as a bare name or an attribute)."""
    found = set()
    for path, _, tree in _modules():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    found.add((path.relative_to(SRC).as_posix(),
                               function.name))
    return found


def test_artifact_keys_are_built_only_by_the_engine_store_key():
    """Content keys are built in ``CampaignEngine._store_key`` alone;
    the only other hash is the custom golden design's signature."""
    assert _functions_calling("stable_key") == {("repro/campaigns/engine.py", "_store_key"),
                     ("repro/store/artifacts.py", "golden_signature")}
    schema_readers = {
        (path.relative_to(SRC).as_posix(), function.name)
        for path, _, tree in _modules()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "ARTIFACT_SCHEMA_VERSION"
    }
    assert schema_readers == {("repro/campaigns/engine.py", "_store_key")}


def test_sec_v_scoring_runs_only_in_the_population_study_and_fig7():
    """The suite, headline, Fig. 6 and the EM cells score the Sec. V
    population through ``CampaignEngine.population_study``; Fig. 7
    scores its own (golden, trojan) population."""
    assert _functions_calling("fit_and_characterise") == {("repro/campaigns/engine.py", "population_study"),
                     ("repro/experiments/fig7_model.py", "run")}
