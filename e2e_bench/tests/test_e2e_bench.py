"""Tests of the end-to-end benchmark itself (tiny grids).

Run from the checkout root::

    python3 -m pytest e2e_bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (the benchmark module under test)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2e_bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"].keys() == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", "0", "--tiny"))
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    # cold, rescore and two back-to-back resume runs.
    assert result["failed"] == 0 and result["attempted"] == 4
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "1",
                            "--seconds", "1", "--trace", "1", "--tiny"))
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] is True
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    if workload == "em_campaign":
        assert values["fpga.annotation_calls"] == 0
        assert values["measurement.em_traces"] > 0
        assert values["store.put_bytes"] > 0
    if workload == "delay_fault_campaign":
        # Cells run in forked supervisor workers: their spans count.
        assert values["fpga.annotation_calls"] > 0
        assert values["campaigns.cells_run"] > 0
        assert 0 < values["campaigns.worker_utilisation"] <= 1
        assert values["analysis.dfa_recover_s"] > 0
    if workload == "paper_suite":
        assert values["netlist.interpreted_eval_calls"] > 0
        assert values["experiments.fn_gap_pp"] > 0
    else:
        # The resume phase reloads every cell's completion record.
        assert values["campaigns.cells_resumed"] >= 4


def test_wrong_reference_fails_every_phase(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    for sizes in reference.values():
        for seeds in sizes.values():
            for phases in seeds.values():
                for name in phases:
                    phases[name] = ["deliberately wrong"]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(reference))
    done = _bench("--workload", "em_campaign", "--seed", "0", "--seconds",
                  "1", "--trace", "0", "--tiny", "--reference", str(wrong))
    result = _result(done)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 4
    assert "failed_ratio     1.0000" in done.stdout


def test_peak_rss_is_per_process_and_includes_forked_children(tmp_path):
    script = ("import os\n"
              "pid = os.fork()\n"
              "if pid == 0:\n"
              "    block = bytearray(300 * 1024 * 1024)\n"
              "    os._exit(0)\n"
              "os.waitpid(pid, 0)\n")
    env = run.subprocess_env(tmp_path / "pycache")
    big = run.run_process([sys.executable, "-c", script], env,
                          tmp_path / "big.log", 60)
    small = run.run_process([sys.executable, "-c", "pass"], env,
                            tmp_path / "small.log", 60)
    assert big.exit_code == small.exit_code == 0
    assert big.rss_mb > 290
    # Not a running maximum over earlier children.
    assert small.rss_mb < 100


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "e2e_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
