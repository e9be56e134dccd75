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
only the engine keys artifacts and scores the Sec. V population.  The
store is one class over one directory with one lock protocol: the
remote tier, its circuit breaker, its transport seam and the writer
leases stay gone.

The fault-injection kit is test tooling too: it lives in
``tests/chaos/``, and nothing under ``src/`` imports it or names its
types; the supervisor's ``before_attempt`` hook and ``clock`` are the
one seam it uses.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Names that exist only as test oracles (or not at all any more).
ORACLE_ONLY_NAMES = {
    # The bit-serial affine map of the element-wise S-box construction.
    "affine_transform",
    "_affine_transform",
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
    "average_stimulus_tensor",
    "acquire_trace_grid",
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
    # The per-cell intra-die offset the bulk-seeded die map replaced.
    "cell_offset_ps",
    # The name-keyed attacked-round stimulus the little-endian input
    # rows (``AESLastRoundCircuit.input_rows``) replaced.
    "AESLastRoundCircuit.input_values",
    "block_to_net_values",
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
    # The fault-injection kit (``tests/chaos/``) and the supervisor's
    # former poll-interval knob.
    "FaultPlan",
    "FaultInjection",
    "FaultKind",
    "ChaosStore",
    "FaultHookStore",
    "WindowFaultStore",
    "SyncFlag",
    "FaultSchedule",
    "FaultWindow",
    "FaultClock",
    "OneShotTrigger",
    "HangClock",
    "FlakyTransport",
    "TransportFaultKind",
    "TransportConnectionError",
    "TransportTimeout",
    "poll_interval_s",
    # The store's second maintenance path, its lock-file fallback, the
    # breaker's operation clock and the store knobs no caller set.
    "sweep_tmp",
    "_stray_tmp_files",
    "_remove_orphan",
    "_fsck_locked",
    "_maintenance_lock",
    "_shared_store_lock",
    "_try_fallback",
    "HAVE_FCNTL",
    "_use_fcntl",
    "_OpClock",
    "_op_clock",
    "lock_timeout_s",
    "lease_ttl_s",
    # The writer leases: a put holds the shared store lock across its
    # object and manifest entry, so maintenance needs no second
    # liveness protocol.
    "WriterLease",
    "LeaseInfo",
    "list_leases",
    "live_foreign_leases",
    "break_stale_leases",
    "DEFAULT_LEASE_TTL_S",
    "acquire_lease",
    "release_lease",
    "writer_lease_scope",
    "cmd_store_leases",
    # The worker rebuild: a supervised worker is a fork of the run's
    # engine, so no store description or payload travels to it, and
    # trace-archive owners are decided once per run.
    "spawn_config",
    "_worker_payload",
    "_maybe_save_traces",
    "_archive_resumed_cells",
    # A cell's kind is its metric's ``METRIC_ARTIFACTS`` entry, it runs
    # through the one ``CampaignEngine.run_cell``, and one retry ledger
    # serves the serial loop and the fleet: the per-kind metric tuples
    # and cell predicates, the per-kind cell runners, the policy copy of
    # the spec, its backoff field and the separate worker-death path.
    "KNOWN_EM_METRICS",
    "KNOWN_DELAY_METRICS",
    "KNOWN_FAULT_METRICS",
    "is_delay",
    "is_fault",
    "build_delay_batch_scorer",
    "_run_em_cell",
    "_run_delay_cell",
    "_run_fault_cell",
    "SupervisorPolicy",
    "retry_backoff_s",
    "_handle_worker_death",
    # The scalar scoring references (``tests/oracles/scoring.py``): the
    # greedy peak finder, its per-trace sum, the pooled sigma and the
    # per-trace metric score.
    "find_local_maxima",
    "sum_of_local_maxima_serial",
    "local_maxima_values",
    "pooled_std",
    "score_trace",
    "difference_trace",
    # The Sec. V detector's paths besides ``fit_and_characterise``.
    "fit_reference",
    "characterise",
    "characterise_many",
    "golden_scores",
    "PopulationComparison",
    "_stack_populations",
    "_population_scores",
    "_infected_scores",
    "_characterise_rows",
    "_characterise_population_scores",
    "from_matrix",
    "compare_many",
    # Analysis helpers nothing in the package called.
    "roc_curve",
    "ROCCurve",
    "_roc_thresholds",
    "separation",
    "welch_t_test",
    "normalised_difference",
    "robust_zscore",
    "bootstrap_mean_ci",
    "mad",
    "empirical_rate",
    "peak_to_peak",
    "signal_to_noise_ratio",
    "mean_trace",
    "FixedThresholdPolicy",
    "headline_summary",
    # The remote store tier: a store is a directory.
    "RemoteStore",
    "TieredStore",
    "PendingUploadJournal",
    "CircuitBreaker",
    "CircuitOpenError",
    "Transport",
    "LoopbackTransport",
    "build_transport",
    "is_retryable_error",
    "cmd_store_sync",
    # The block-at-a-time AES and its GF(2^8) arithmetic
    # (``tests/oracles/aes.py``, ``tests/oracles/sbox.py``); the batched
    # kernel is the package's one cipher, and nothing decrypts.
    "AES",
    "EncryptionTrace",
    "RoundRecord",
    "encrypt_trace",
    "encrypt_block",
    "sub_bytes_block",
    "shift_rows_block",
    "mix_columns_block",
    "xor_bytes",
    "hamming_distance",
    "gf_mul",
    "gf_pow",
    "gf_inv",
    "decrypt_block",
    "inv_sub_bytes_block",
    "inv_shift_rows_block",
    "inv_mix_columns_block",
    "inv_sub_byte",
    "gf_mul_09",
    "gf_mul_0b",
    "gf_mul_0d",
    "gf_mul_0e",
    "build_log_tables",
    "encrypt_round_states",
    # The stand-alone S-box netlist fixture and the netlist, trigger and
    # delay accessors only tests drove (``tests/oracles/``).
    "build_sbox_netlist",
    "evaluate_sbox_netlist",
    "sbox_netlist_truth_table",
    "sbox_input_net",
    "sbox_output_net",
    "make_xor",
    "netlist_stats",
    "next_register_values",
    "evaluate_outputs",
    "fanin_cone",
    "fanout_cone",
    "tap_values",
    "is_triggered",
    "is_triggered_at",
    "counter_register_values",
    "cell_delay_ps",
    "net_delay_ps",
    # The name-keyed delay annotation and its per-name lowerings; a
    # die's annotation is two compiled-order vectors (DelayVectors).
    "DelayAnnotation",
    "cell_delay_vector",
    "net_delay_vector",
    "dict_delay_annotation",
    "batch_noiseless_traces_many",
    # Models and helpers no command reached.
    "NetDelayModel",
    "BowmanParameters",
    "fmax_statistics",
    "build_golden_design_cached",
    "spartan3an_700",
    "probe_coupling",
    "steps_to_violate",
    "max_propagation_ps",
    "available_trojans",
    "build_size_sweep",
    "run_campaign",
    # The suite's second description of its sizes, the platform's
    # config and the engine's per-cell platforms and shared caches: a
    # study is one CampaignSpec, and an engine builds one platform,
    # which owns the golden design and both caches.
    "ExperimentConfig",
    "PlatformConfig",
    "FIXED_PLAINTEXT",
    "FIXED_KEY",
    "build_platform",
    "platform_for",
    "_platform_cache",
    "_infected_cache",
    "_annotation_cache",
    "CampaignEngine.infected_design",
    # Accessors no command called; each looked reached only because a
    # definition elsewhere shares its name.
    "Fig3Result.labels",
    "DelayStudyResult.labels",
    "DelayFingerprint.num_pairs",
    "DelayMeasurement.num_pairs",
    "GridCell.describe",
    "DieProfile.describe",
    "EMTrace.copy",
    "DelayAnnotation.copy",
    "Placement.cell_count",
    "FPGADevice.iter_slices",
    "Region.contains",
    "AESLastRoundCircuit.evaluate",
    "AESLastRoundCircuit.lut_equivalent_area",
    "CompiledNetlist.evaluate",
}

#: The trace metrics of ``repro.core.metrics``.
METRIC_CLASSES = ("LocalMaximaSumMetric", "L1TraceMetric",
                  "MaxDifferenceMetric")

#: Types of the fault-injection kit no module under ``src/`` may name.
KIT_NAMES = ("FaultPlan", "ChaosStore", "FlakyTransport", "FaultSchedule",
             "SyncFlag")

#: Module prefixes of the kit, at its home and at its former one.
KIT_MODULES = ("chaos", "repro.testing")

#: The acquisition entry points ``e2e_bench/tracer.py`` wraps by name.
ACQUISITION_VIEWS = ("acquire", "acquire_batch_matrix",
                     "acquire_many_batch_tensor")

REMOVED_MODULES = ("repro.backend", "repro.netlist.bitslice",
                   "repro.store.remote", "repro.store.tiered",
                   "repro.store.breaker", "repro.store.transport")


def _imported_modules(module: str, path: Path, node: ast.AST):
    """Every module an import node loads (``from a import b`` may load
    ``a.b``), or ``[]`` for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        source = _absolute(module, path, node)
        return [source] + [f"{source}.{alias.name}" for alias in node.names]
    return []


@functools.lru_cache(maxsize=None)
def _modules():
    """``(path, module name, tree)`` of every module under ``src/``,
    parsed once for the whole file."""
    modules = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append((path, ".".join(parts),
                        ast.parse(path.read_text(), str(path))))
    return tuple(modules)


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
    """A bare name is defined nowhere under ``src/``; a ``Class.member``
    name is not defined in the body of any class of that name (methods
    and attributes its methods assign), so another class may keep a
    member of the same name."""
    members = {}
    for qualified in ORACLE_ONLY_NAMES:
        owner, _, member = qualified.rpartition(".")
        if owner:
            members.setdefault(owner, set()).add(member)
    defined = []
    for path, _, tree in _modules():
        for node in ast.walk(tree):
            for name in _defined_names(node):
                if name in ORACLE_ONLY_NAMES:
                    defined.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                   f"{name}")
            if isinstance(node, ast.ClassDef) and node.name in members:
                for statement in node.body:
                    for inner in ast.walk(statement):
                        for name in _defined_names(inner):
                            if name in members[node.name]:
                                defined.append(
                                    f"{path.relative_to(SRC)}:{inner.lineno}"
                                    f" {node.name}.{name}")
    assert not defined, defined


def test_the_guard_sees_a_qualified_oracle_name(monkeypatch):
    """A ``Class.member`` entry catches that member, and only in that
    class."""
    injected = ast.parse("class GridCell:\n"
                         "    def describe(self):\n        return ''\n"
                         "class Lease:\n"
                         "    def describe(self):\n        return ''\n")
    path = SRC / "repro" / "_guard_probe.py"
    monkeypatch.setattr(sys.modules[__name__], "_modules",
                        lambda: ((path, "repro._guard_probe", injected),))
    with pytest.raises(AssertionError, match=r"GridCell\.describe") as failure:
        test_no_oracle_is_defined_under_src()
    assert "Lease" not in str(failure.value)


@pytest.mark.parametrize("module, name", [
    ("repro.experiments", "ExperimentConfig"),
    ("repro.experiments", "FIXED_PLAINTEXT"),
    ("repro.experiments", "FIXED_KEY"),
    ("repro", "PlatformConfig"),
    ("repro.core", "PlatformConfig"),
    ("repro.core.pipeline", "PlatformConfig"),
    ("repro.campaigns.engine", "CampaignEngine.platform_for"),
    ("repro.campaigns.engine", "CampaignEngine.infected_design"),
    ("repro.campaigns.engine", "CampaignEngine.golden"),
])
def test_the_suite_has_one_description_and_one_platform(module, name):
    """The suite's sizes live in its CampaignSpec alone, and an engine
    reaches its one platform as ``engine.platform``."""
    import importlib

    target = importlib.import_module(module)
    with pytest.raises(AttributeError):
        for part in name.split("."):
            target = getattr(target, part)
    assert importlib.util.find_spec("repro.experiments.config") is None


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
                 "acquire_many_batch", "clear_caches",
                 "batch_noiseless_traces_many"):
        assert not hasattr(EMSimulator, name), name
    assert not hasattr(Oscilloscope, "acquire")
    for trojan_class in (HardwareTrojan, CombinationalTrojan,
                         SequentialTrojan):
        for name in ("round_activity", "encryption_activity"):
            assert not hasattr(trojan_class, name), (trojan_class, name)
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

    from repro.campaigns import CampaignEngine
    from repro.experiments import suite_spec
    from repro.netlist.netlist import Netlist

    calls = []
    original = Netlist.evaluate

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Netlist, "evaluate", counting)
    module = importlib.import_module(f"repro.experiments.{driver}")
    module.run(CampaignEngine(suite_spec(quick=True)))
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
            ["engine"], driver
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


def test_the_sec_v_detector_and_metrics_score_one_way():
    """``PopulationEMDetector`` has one public call and each trace metric
    one scoring method; the per-trace scores live in the oracles."""
    from repro.core import metrics
    from repro.core.em_detector import PopulationEMDetector

    public = {name for name in dir(PopulationEMDetector)
              if not name.startswith("_")
              and callable(getattr(PopulationEMDetector, name))}
    assert public == {"fit_and_characterise"}
    for class_name in METRIC_CLASSES:
        own = {name for name, value in vars(getattr(metrics, class_name)).items()
               if callable(value) and not name.startswith("__")}
        assert own == {"scores_matrix"}, (class_name, own)


def test_src_does_not_import_or_name_the_fault_kit():
    """The kit stays in ``tests/``: no import of it, and no reference
    to its types (names, attributes, imported aliases or strings)."""
    offending = []
    for path, module, tree in _modules():
        for node in ast.walk(tree):
            for target in _imported_modules(module, path, node):
                if target.split(".")[0] == KIT_MODULES[0] \
                        or target.startswith(KIT_MODULES[1]):
                    offending.append(f"{path.relative_to(SRC)}:"
                                     f"{node.lineno} imports {target}")
            named = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                named |= set(re.findall(r"\w+", node.value))
            for name in named & set(KIT_NAMES):
                offending.append(f"{path.relative_to(SRC)}:"
                                 f"{getattr(node, 'lineno', '?')} {name}")
    assert not offending, offending


def test_the_kit_is_not_a_shipped_module():
    import importlib.util

    assert importlib.util.find_spec("repro.testing") is None
    assert not (SRC / "repro" / "testing").exists()


def test_the_engine_and_supervisor_take_no_fault_plan():
    import dataclasses
    import inspect

    from repro.campaigns.engine import CampaignEngine
    from repro.campaigns.spec import CampaignSpec
    from repro.campaigns.supervisor import CampaignSupervisor

    assert list(inspect.signature(CampaignEngine.run).parameters) == \
        ["self", "artifact_dir", "shard"]
    assert "fault_plan" not in inspect.signature(
        CampaignSupervisor.__init__).parameters
    assert "poll_interval_s" not in {
        field.name for field in dataclasses.fields(CampaignSpec)}


#: Definitions no command, example or probe reaches that stay on
#: purpose, each with its reason.
UNREACHED_ALLOWLIST = {
    # The readers of the files ``campaign run --out`` (``<name>.json``)
    # and ``--save-traces`` (``traces_d<dies>_<variant>.npz``) write:
    # how a user loads a campaign's results back into Python.
    "load_result",
    "load_traces",
}

#: Module-level names that declare a package's lazy exports; a name
#: listed there is not a use of it.
_EXPORT_DECLARATIONS = {"_EXPORTS", "__all__"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _identifiers(nodes):
    """Every name, attribute and keyword-argument identifier the code of
    ``nodes`` reads.  Assignment targets, imports, string constants
    (docstrings among them) and comments are not uses."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    return names


def _definitions(modules):
    """``(name, location, bodies)`` of every module-level function, class,
    method and constant of ``modules`` (``(path, name, tree)`` as
    :func:`_modules` gives them), plus the module-level code that runs
    on import (a root).  A class's body besides its methods (bases,
    decorators, fields) and its dunder methods, which Python calls
    implicitly, count as the class's own body."""
    definitions, module_code = [], []
    for path, _, tree in modules:
        where = path.relative_to(SRC).as_posix()
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((
                    statement.name,
                    f"{where}:{statement.lineno} {statement.name}",
                    [statement]))
            elif isinstance(statement, ast.ClassDef):
                own = []
                for member in statement.body:
                    if (isinstance(member, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                            and not _is_dunder(member.name)):
                        definitions.append((
                            member.name,
                            f"{where}:{member.lineno} "
                            f"{statement.name}.{member.name}",
                            [member]))
                    else:
                        own.append(member)
                definitions.append((
                    statement.name,
                    f"{where}:{statement.lineno} {statement.name}",
                    [*statement.bases, *statement.keywords,
                     *statement.decorator_list, *own]))
            else:
                targets = _defined_names(statement)
                if set(targets) & _EXPORT_DECLARATIONS:
                    continue
                module_code.append(statement)
                definitions.extend(
                    (name, f"{where}:{statement.lineno} {name}", [])
                    for name in targets if not _is_dunder(name))
    return definitions, module_code


def _roots(allowlist=frozenset(UNREACHED_ALLOWLIST)):
    """Names reached from outside the package's own bodies: every
    definition of the CLI module, the tracer's probe targets and the
    supervisor hooks it wraps, every identifier the examples use and
    the ``allowlist``."""
    roots = set(allowlist)
    cli = ast.parse((SRC / "repro" / "cli.py").read_text())
    roots |= {name for statement in cli.body
              for name in _defined_names(statement)}
    roots |= {node.name for node in ast.walk(cli)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    spec = importlib.util.spec_from_file_location(
        "e2e_bench_tracer", REPO / "e2e_bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for probe in tracer.PROBES:
        roots |= set(probe.attribute.split("."))
    roots |= {"CampaignSupervisor", "run", "_worker_main"}
    for example in sorted((REPO / "examples").glob("*.py")):
        tree = ast.parse(example.read_text(), str(example))
        roots |= _identifiers([tree])
        roots |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
    return roots


def test_every_src_definition_is_reached():
    """Every definition under ``src/`` is reached, by name, from a CLI
    command, an example or a tracer probe.

    A definition is reached when its name is a code identifier in a
    reached body, starting from the roots and the module-level code;
    a name in a docstring, an ``_EXPORTS`` map or a re-export import is
    not a use.  Reaching is by name, so a name reached anywhere covers
    every definition of it (the check can miss dead code), and a name
    used only as a string (``getattr``) needs an allowlist entry.  What
    only tests reach belongs in ``tests/oracles/``.
    """
    unreached = _unreached(_modules(), _roots())
    assert not unreached, unreached


def _unreached(modules, roots):
    """Locations of the definitions of ``modules`` that no name of
    ``roots`` reaches, directly or through a reached body."""
    definitions, module_code = _definitions(modules)
    reached = set(roots) | _identifiers(module_code)
    pending = list(definitions)
    while True:
        newly = [entry for entry in pending if entry[0] in reached]
        if not newly:
            break
        pending = [entry for entry in pending if entry[0] not in reached]
        for _, _, bodies in newly:
            reached |= _identifiers(bodies)
    return sorted(where for _, where, _ in pending)


#: Modules added to ``src/`` for the guard's own tests, and the names in
#: them the guard must report as unreached.
_INJECTED_MODULES = {
    "unused_function": ("def _guard_probe():\n    return 1\n",
                        ["_guard_probe"]),
    "unused_method": ("class _GuardProbe:\n"
                      "    def unused_guard_method(self):\n"
                      "        return 1\n"
                      "_GuardProbe()\n",
                      ["_GuardProbe.unused_guard_method"]),
    "unused_constant": ("_GUARD_PROBE = 3\n", ["_GUARD_PROBE"]),
    "unused_class": ("class _GuardProbe:\n    pass\n", ["_GuardProbe"]),
    "named_in_a_docstring": ('"""Mentions _guard_probe."""\n'
                             "def _guard_probe():\n    return 1\n",
                             ["_guard_probe"]),
    "named_in_an_exports_map": (
        '_EXPORTS = {"_guard_probe": "repro._guard_probe"}\n'
        "def _guard_probe():\n    return 1\n", ["_guard_probe"]),
    "named_in_a_string": ('getattr(object, "_guard_probe", None)\n'
                          "def _guard_probe():\n    return 1\n",
                          ["_guard_probe"]),
    "reached_through_a_call_chain": (
        "def _guard_probe():\n    return _guard_helper()\n"
        "def _guard_helper():\n    return 1\n"
        "_guard_probe()\n", []),
}


@pytest.mark.parametrize("case", list(_INJECTED_MODULES))
def test_the_reachability_guard_sees_an_injected_module(case):
    source, expected = _INJECTED_MODULES[case]
    path = SRC / "repro" / "_guard_probe.py"
    injected = (path, "repro._guard_probe", ast.parse(source, str(path)))
    # A re-export of every probe name from the package is no use either.
    reexport = ast.parse("from ._guard_probe import _guard_probe, "
                         "_GuardProbe, _GUARD_PROBE, _guard_helper\n")
    path_init = SRC / "repro" / "_guard_reexport.py"
    modules = (*_modules(), injected,
               (path_init, "repro._guard_reexport", reexport))
    unreached = _unreached(modules, _roots())
    assert [where.split()[-1] for where in unreached] == expected


@pytest.mark.parametrize("name", sorted(UNREACHED_ALLOWLIST))
def test_every_allowlist_entry_is_needed(name):
    """Without its entry, the name (and what only it reaches) is
    reported: no entry covers a definition something else reaches."""
    unreached = _unreached(_modules(),
                           _roots(UNREACHED_ALLOWLIST - {name}))
    assert name in [where.split()[-1] for where in unreached]
