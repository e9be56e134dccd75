"""Shared fixtures for the benchmark harness.

The benchmarks are the ablations of the paper's design choices (on the
quick suite campaign: identical code paths, reduced sizes) and the
speed-up gates of the batched kernels.  Each attaches its measured
numbers to the benchmark record through ``benchmark.extra_info``.
The figure drivers are checked by ``tests/test_experiments.py`` and
timed end to end by ``e2e_bench``.

The harness is self-contained: it runs headless from a clean checkout
(``pytest benchmarks/``) with no install step — ``src/`` is put on
``sys.path`` here — and degrades gracefully to single-pass timing when
the ``pytest-benchmark`` plugin is not available.

Every ``bench_*.py`` module additionally emits an in-repo record,
``benchmarks/records/BENCH_<name>.json``, holding each test's
``extra_info`` (measured speedup, gate threshold, regenerated paper
numbers) with no timestamps — committing the records tracks the perf
trajectory of the repository alongside the code.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

# Make the bench suite importable from a clean checkout without
# installation or a PYTHONPATH export; ``tests/`` holds the serial
# oracles (``from oracles import ...``) the speed-up gates time.
_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "tests", _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.core.pipeline import HTDetectionPlatform  # noqa: E402
from repro.experiments import suite_spec  # noqa: E402

try:
    import pytest_benchmark  # noqa: F401
    _HAVE_BENCHMARK_PLUGIN = True
except ImportError:  # pragma: no cover - depends on the environment
    _HAVE_BENCHMARK_PLUGIN = False


if not _HAVE_BENCHMARK_PLUGIN:  # pragma: no cover - depends on the environment

    class _FallbackBenchmark:
        """Single-pass stand-in for the pytest-benchmark fixture."""

        def __init__(self):
            self.extra_info = {}
            self.stats = None

        def __call__(self, func, *args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            self.extra_info["single_pass_seconds"] = time.perf_counter() - start
            return result

        def pedantic(self, func, args=(), kwargs=None, **_options):
            return self(func, *args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _FallbackBenchmark()


#: Where the per-module benchmark records land (committed to the repo).
RECORDS_DIR = Path(__file__).resolve().parent / "records"


def _jsonable(value):
    """Coerce extra_info values (numpy scalars included) to plain JSON."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        return round(value, 6)
    return value


def _record_benchmark(item) -> None:
    """Merge one test's ``extra_info`` into its module's BENCH record.

    The record file is ``BENCH_<module-minus-bench_>.json``: one
    ``tests`` entry per benchmark test, deterministic layout (sorted
    keys, no timestamps) so reruns produce reviewable diffs.
    """
    fixture = getattr(item, "funcargs", {}).get("benchmark")
    extra = getattr(fixture, "extra_info", None)
    if not extra:
        return
    module_name = item.module.__name__.rpartition(".")[2]
    if not module_name.startswith("bench_"):
        return
    name = module_name[len("bench_"):]
    RECORDS_DIR.mkdir(exist_ok=True)
    path = RECORDS_DIR / f"BENCH_{name}.json"
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except ValueError:
            record = {}
    record["bench"] = name
    record.setdefault("tests", {})
    record["tests"][item.name] = _jsonable(dict(extra))
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield
    _record_benchmark(item)


@pytest.fixture(scope="session")
def platform():
    """The quick suite campaign's platform, shared by the ablations."""
    return HTDetectionPlatform(suite_spec(quick=True))
