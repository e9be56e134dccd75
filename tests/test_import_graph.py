"""No CLI command imports scipy, and ``import repro`` imports nothing.

The paper's statistics reduce to Gaussian fits and the Eq. (5) closed
form (``math.erf``), so scipy is only needed by ``welch_t_test`` and
``required_separation``, which import it on call.  Each case below runs
in a fresh interpreter and checks the set of loaded modules (never
wall-clock time), so a top-level ``from scipy import ...`` anywhere on a
command's import path fails here.  The value pins need scipy itself and
are skipped where it is not installed.  The package's ``__all__``
names resolve lazily (PEP 562), so they are checked against the
submodules that define them.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import pytest

import repro
from repro.analysis.stats import welch_t_test
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


@pytest.mark.parametrize("name", [n for n in repro.__all__
                                  if n != "__version__"])
def test_package_exports_resolve_to_their_defining_submodule(name):
    submodule = importlib.import_module(repro._EXPORTS[name], "repro")
    value = getattr(repro, name)
    assert value is getattr(submodule, name)
    assert value.__module__.startswith(submodule.__name__ + ".")
    assert name in dir(repro)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018


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


def test_quick_paper_suite_loads_no_scipy(tmp_path):
    assert _probe(["experiments", "--quick"], tmp_path) == {
        "exit": 0, "scipy": False}


def test_welch_t_test_values_are_pinned():
    pytest.importorskip("scipy")
    assert welch_t_test([1, 1.1, 0.9, 1.05], [2, 2.1, 1.9, 2.05]) == (
        -16.561573424216498, 3.090426110062122e-06)
    assert welch_t_test([0.3, -1.2, 2.5, 0.7, 1.1], [1.9, 2.4, 0.8, 3.3]) == (
        -1.7889371886529464, 0.11676027364175033)


def test_required_separation_values_are_pinned():
    pytest.importorskip("scipy")
    assert [required_separation(rate, 1.7)
            for rate in (0.26, 0.17, 0.05, 0.001)] == [
        2.187374378335918, 3.2441618606970604, 5.592502331635008,
        10.506789840970564]
