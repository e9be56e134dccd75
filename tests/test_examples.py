"""Every example runs to completion.

The examples are roots of the reachability guard
(``test_one_implementation.py::test_every_src_definition_is_reached``):
what they use stays in ``src/``, so each one must keep working with the
small arguments the README gives.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Each example with the arguments that keep it to about a second.
EXAMPLES = {
    "quickstart.py": [],
    "campaign_sweep.py": [],
    "foundry_attack_scenario.py": [],
    "process_variation_study.py": ["--dies", "2", "4"],
    "reproduce_paper_figures.py": ["--out", "figures"],
}


def test_every_example_is_listed():
    assert sorted(EXAMPLES) == sorted(
        path.name for path in (REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_example_exits_zero(tmp_path, example):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, str(REPO / "examples" / example),
         *EXAMPLES[example]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
