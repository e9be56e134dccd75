"""The end-to-end benchmark's tracer still finds every entry point it wraps.

``e2e_bench/tracer.py`` wraps public functions and methods by name at
run time.  A rename in ``src/`` would otherwise only surface when the
traced benchmark runs; these checks resolve every probe target the way
the tracer's installer does.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location(
        "e2e_bench_tracer", REPO / "e2e_bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attribute: str):
    """Mirror of the tracer's ``_install_one`` lookup."""
    module = importlib.import_module(module_name)
    if "." not in attribute:
        return getattr(module, attribute)
    class_name, method = attribute.split(".")
    # The installer reads the class's own ``__dict__``: an inherited
    # method would raise KeyError there.
    return getattr(module, class_name).__dict__[method]


def test_every_probe_target_resolves(tracer):
    missing = []
    for probe in tracer.PROBES:
        try:
            _resolve(probe.module, probe.attribute)
        except (AttributeError, KeyError, ImportError) as error:
            missing.append(f"{probe.module}:{probe.attribute} ({error!r})")
    assert not missing, missing


def test_supervisor_hooks_resolve():
    _resolve("repro.campaigns.supervisor", "CampaignSupervisor.run")
    _resolve("repro.campaigns.supervisor", "_worker_main")


def test_acquisition_hooks_read_positional_arguments():
    """The trace-count hooks read ``len(args[1]) * len(args[2])`` (and
    ``len(args[1])`` for the single-stimulus view), so the parameters
    keep their positions and in-tree callers pass them positionally."""
    from repro.measurement.em_simulator import EMSimulator

    positional = {"acquire_many_batch_tensor": 2, "acquire_batch_matrix": 1}
    tensor = list(inspect.signature(
        EMSimulator.acquire_many_batch_tensor).parameters)
    assert tensor[1:3] == ["duts", "plaintexts"]
    matrix = list(inspect.signature(
        EMSimulator.acquire_batch_matrix).parameters)
    assert matrix[1] == "duts"

    short_calls = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in positional
                    and len(node.args) < positional[node.func.attr]):
                short_calls.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not short_calls, short_calls
