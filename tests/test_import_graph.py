"""No CLI command imports scipy, ``import repro`` imports nothing, and a
resumed campaign imports nothing that computes.

The paper's statistics reduce to Gaussian fits and the Eq. (5) closed
form (``math.erf``), so scipy is only needed by
``required_separation``, which imports it on call.  Each case below runs
in a fresh interpreter and checks the set of loaded modules (never
wall-clock time), so a top-level ``from scipy import ...`` anywhere on a
command's import path fails here.  The value pin needs scipy itself and
is skipped where it is not installed.  Every package's ``__all__``
names resolve lazily (PEP 562), so they are checked against the
submodules that define them.  A fully resumed ``campaign run``, a warm
``experiments --store`` and ``--help`` must load neither NumPy nor any
layer that computes; the store audit may decode npz (NumPy) but loads
no computing layer either.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

import repro
import repro.cli
from repro.campaigns import CampaignResult
from repro.core.metrics import required_separation

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``repro.cli.main(argv)`` (or only imports the CLI when argv is
# null) and reports the exit code and whether scipy got loaded.
_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
import repro.cli
code = None if argv is None else repro.cli.main(argv)
print(json.dumps({"exit": code, "scipy": "scipy" in sys.modules}))
"""


def _run(code: str, *args: str, cwd: Optional[Path] = None
         ) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src/`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)


def _probe(argv: Optional[List[str]], cwd: Path) -> dict:
    completed = _run(_PROBE, json.dumps(argv), cwd=cwd)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


# Runs ``repro.cli.main(argv)`` (``--help`` exits through SystemExit)
# and reports the exit code and every loaded ``repro`` module and numpy.
_MODULES_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
import repro.cli
try:
    code = repro.cli.main(argv)
except SystemExit as stop:
    code = stop.code
print(json.dumps({"exit": code, "modules": sorted(
    m for m in sys.modules if m.startswith("repro") or m == "numpy")}))
"""

#: Packages whose public names resolve lazily.
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.campaigns", "repro.core",
                 "repro.crypto", "repro.experiments", "repro.fpga",
                 "repro.io", "repro.measurement", "repro.store",
                 "repro.trojan")

#: Layers that compute (every module of each), and single modules that
#: do; a resumed campaign needs none of them.
COMPUTING_LAYERS = ("repro.netlist", "repro.measurement", "repro.variation",
                    "repro.crypto", "repro.attacks", "repro.analysis",
                    "repro.experiments")
COMPUTING_MODULES = ("repro.fpga.design", "repro.trojan.insertion")


def _loaded_modules(argv: List[str], cwd: Path) -> Tuple[str, List[str]]:
    """The output of a successful command and the modules it loaded."""
    completed = _run(_MODULES_PROBE, json.dumps(argv), cwd=cwd)
    assert completed.returncode == 0, completed.stderr[-2000:]
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["exit"] == 0, completed.stdout[-2000:]
    return completed.stdout, report["modules"]


def _computing(modules: List[str]) -> List[str]:
    return [module for module in modules
            if module in COMPUTING_MODULES
            or any(module == layer or module.startswith(layer + ".")
                   for layer in COMPUTING_LAYERS)]


def _assert_imports_nothing_that_computes(modules: List[str]) -> None:
    assert "numpy" not in modules
    assert _computing(modules) == []
    assert "repro.campaigns.supervisor" not in modules


def _campaign(store: Path, out: Path) -> List[str]:
    return ["campaign", "run", "--name", "imports", "--trojan", "HT1",
            "--dies", "3", "--plaintexts", "2", "--metric",
            "local_maxima_sum", "--metric", "l1", "--seed", "4",
            "--store", str(store), "--out", str(out)]


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert _probe(None, tmp_path) == {"exit": None, "scipy": False}


def test_importing_the_package_loads_no_subpackage():
    completed = _run("import sys, repro; print(sorted(m for m in sys.modules"
                     " if m.startswith('repro.') or m == 'numpy'))")
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "[]"


def test_importing_a_package_runs_none_of_its_submodules():
    completed = _run("import json, sys\n"
                     f"for name in {list(LAZY_PACKAGES)!r}:\n"
                     "    __import__(name)\n"
                     "print(json.dumps(sorted(m for m in sys.modules if "
                     "m.startswith('repro') or m == 'numpy')))")
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert json.loads(completed.stdout) == sorted(LAZY_PACKAGES)


def _exports():
    for package_name in LAZY_PACKAGES:
        package = importlib.import_module(package_name)
        for name in package._EXPORTS:
            # The top-level package keeps its historical test ids.
            yield pytest.param(
                package_name, name,
                id=name if package_name == "repro"
                else f"{package_name}.{name}")


@pytest.mark.parametrize("package_name, name", _exports())
def test_package_exports_resolve_to_their_defining_submodule(package_name,
                                                             name):
    package = importlib.import_module(package_name)
    submodule = importlib.import_module(package._EXPORTS[name], package_name)
    value = getattr(package, name)
    assert value is getattr(submodule, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == submodule.__name__ \
            or value.__module__.startswith(submodule.__name__ + ".")
    assert name in dir(package)
    assert name in package.__all__


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018


@pytest.mark.parametrize("package_name", LAZY_PACKAGES[1:])
def test_unknown_subpackage_attribute_raises_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match=f"{package_name}.*no_such_name"):
        getattr(package, "no_such_name")


def test_campaign_cold_warm_and_fsck_load_no_scipy(tmp_path):
    store = tmp_path / "store"
    cold = _probe(_campaign(store, tmp_path / "cold"), tmp_path)
    warm = _probe(_campaign(store, tmp_path / "warm"), tmp_path)
    fsck = _probe(["store", "fsck", str(store)], tmp_path)
    assert cold == warm == fsck == {"exit": 0, "scipy": False}
    rows = [CampaignResult.from_dict(json.loads(
        (tmp_path / run / "imports.json").read_text())).rows()
        for run in ("cold", "warm")]
    assert rows[0] == rows[1]


def test_help_imports_nothing_that_computes(tmp_path):
    _assert_imports_nothing_that_computes(
        _loaded_modules(["--help"], tmp_path)[1])


@pytest.mark.parametrize("metrics", [
    ("local_maxima_sum", "l1"),
    ("delay_max_difference", "fault_coverage"),
], ids=["em", "delay_fault"])
def test_resumed_campaign_imports_nothing_that_computes(tmp_path, metrics):
    """A rerun that finds every cell in the store loads the CLI, the
    spec, the store and the engine's records; never NumPy, a computing
    layer or the supervisor.  The audit of that store decodes npz, so
    it may load NumPy, but no computing layer."""
    store = tmp_path / "store"
    argv = ["campaign", "run", "--trojan", "HT1", "--trojan", "HT2",
            "--dies", "3", "--plaintexts", "2", "--pk-pairs", "2",
            "--delay-repetitions", "1", "--workers", "2", "--seed", "4",
            "--store", str(store)]
    for metric in metrics:
        argv += ["--metric", metric]
    _loaded_modules(argv + ["--out", str(tmp_path / "cold")], tmp_path)
    output, modules = _loaded_modules(
        argv + ["--out", str(tmp_path / "warm")], tmp_path)
    assert "(2 cell(s) resumed)" in output
    _assert_imports_nothing_that_computes(modules)
    assert ((tmp_path / "cold" / "campaign.csv").read_bytes()
            == (tmp_path / "warm" / "campaign.csv").read_bytes())
    _, fsck_modules = _loaded_modules(["store", "fsck", str(store)], tmp_path)
    assert _computing(fsck_modules) == []


# Runs ``repro.cli.main`` on each argv in turn, in one interpreter, and
# reports each command's exit code, stdout and the ``repro`` modules,
# numpy and scipy loaded by then.
_STEPS_PROBE = """
import contextlib, io, json, sys
import repro.cli
steps = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    steps.append({"exit": code, "stdout": out.getvalue(), "modules": sorted(
        m for m in sys.modules
        if m.startswith("repro") or m in ("numpy", "scipy"))})
print(json.dumps(steps))
"""


def test_quick_paper_suite_loads_no_scipy(tmp_path, capsys):
    """A cold quick suite loads no scipy.  Its warm rerun, the first
    command of the same fresh interpreter, prints the stored table byte
    for byte and loads no NumPy, no figure driver and no other layer
    that computes: only the suite's runner of ``repro.experiments``."""
    store = ["--store", str(tmp_path / "store")]
    assert repro.cli.main(["experiments", "--quick", *store]) == 0
    cold_table = capsys.readouterr().out
    completed = _run(_STEPS_PROBE, json.dumps(
        [["experiments", "--quick", *store], ["experiments", "--quick"]]),
        cwd=tmp_path)
    assert completed.returncode == 0, completed.stderr[-2000:]
    warm, cold = json.loads(completed.stdout.strip().splitlines()[-1])
    assert (warm["exit"], warm["stdout"]) == (0, cold_table)
    _assert_imports_nothing_that_computes(
        [module for module in warm["modules"] if module not in
         ("repro.experiments", "repro.experiments.runner")])
    assert "scipy" not in warm["modules"]
    assert (cold["exit"], cold["stdout"]) == (0, cold_table)
    assert "scipy" not in cold["modules"]


def test_required_separation_values_are_pinned():
    pytest.importorskip("scipy")
    assert [required_separation(rate, 1.7)
            for rate in (0.26, 0.17, 0.05, 0.001)] == [
        2.187374378335918, 3.2441618606970604, 5.592502331635008,
        10.506789840970564]


def test_forked_workers_share_one_numpy_import(tmp_path):
    """A cold two-worker run imports NumPy once, in the parent before it
    forks, not once per worker: ``-X importtime`` reports every
    process's imports on the shared stderr, one line per top-level
    ``numpy`` import."""
    argv = ["campaign", "run", "--trojan", "HT1", "--dies", "3",
            "--dies", "4", "--metric", "delay_max_difference",
            "--metric", "fault_coverage", "--pk-pairs", "2",
            "--delay-repetitions", "1", "--plaintexts", "2",
            "--workers", "2", "--seed", "4",
            "--store", str(tmp_path / "store"),
            "--out", str(tmp_path / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    numpy_imports = [line for line in completed.stderr.splitlines()
                     if line.startswith("import time:")
                     and line.rsplit("|", 1)[-1] == " numpy"]
    assert len(numpy_imports) == 1, numpy_imports
