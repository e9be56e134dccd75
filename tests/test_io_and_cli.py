"""Tests for trace/result persistence and the command-line interface."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser, main
from repro.io.results import load_result, save_result, to_jsonable
from repro.io.tracefile import load_traces, save_traces
from repro.measurement.em_simulator import EMTrace


def make_trace(label: str, seed: int) -> EMTrace:
    rng = np.random.default_rng(seed)
    return EMTrace(
        samples=rng.normal(0, 100, 256),
        label=label,
        plaintext=bytes(range(16)),
        sample_period_ns=0.2,
    )


def test_save_and_load_traces_round_trip(tmp_path):
    traces = [make_trace("golden", 1), make_trace("infected", 2)]
    path = save_traces(tmp_path / "campaign", traces)
    assert path.suffix == ".npz"
    loaded = load_traces(path)
    assert len(loaded) == 2
    assert loaded[0].label == "golden"
    assert loaded[1].plaintext == bytes(range(16))
    assert np.allclose(loaded[0].samples, traces[0].samples)
    assert loaded[0].sample_period_ns == pytest.approx(0.2)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    num_traces=st.integers(1, 4),
    num_samples=st.integers(1, 64),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_trace_round_trip_is_lossless(tmp_path_factory, data, num_traces,
                                      num_samples, dtype):
    """Every EMTrace field survives save/load bit-for-bit.

    Pins the v1 lossiness fix: sample dtype is preserved and
    ``cycle_sample_offsets`` — including ragged, per-trace lengths — is
    no longer dropped on save.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    traces = []
    for index in range(num_traces):
        num_offsets = data.draw(st.integers(0, 8))
        traces.append(EMTrace(
            samples=rng.normal(0, 100, num_samples).astype(dtype),
            label=data.draw(st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1, max_size=12)),
            plaintext=bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
            sample_period_ns=float(data.draw(st.floats(
                1e-3, 10.0, allow_nan=False, allow_infinity=False))),
            cycle_sample_offsets=[int(v) for v in
                                  rng.integers(0, 4096, num_offsets)],
        ))
    path = tmp_path_factory.mktemp("traces") / "round_trip.npz"
    loaded = load_traces(save_traces(path, traces))
    assert len(loaded) == len(traces)
    for original, copy in zip(traces, loaded):
        assert copy.samples.dtype == original.samples.dtype
        assert copy.samples.tobytes() == original.samples.tobytes()
        assert copy.label == original.label
        assert copy.plaintext == original.plaintext
        assert copy.sample_period_ns == original.sample_period_ns
        assert copy.cycle_sample_offsets == original.cycle_sample_offsets


def test_v1_archives_still_load(tmp_path):
    """Archives written before the offsets fix load with empty offsets."""
    traces = [make_trace("legacy", 5)]
    path = tmp_path / "legacy.npz"
    np.savez_compressed(
        path,
        format_version=np.array(1),
        samples=np.vstack([traces[0].samples]),
        labels=np.array(["legacy"]),
        plaintexts=np.array([traces[0].plaintext.hex()]),
        sample_period_ns=np.array([0.2]),
    )
    loaded = load_traces(path)
    assert loaded[0].label == "legacy"
    assert loaded[0].cycle_sample_offsets == []
    assert np.array_equal(loaded[0].samples, traces[0].samples)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "future.npz"
    np.savez_compressed(path, format_version=np.array(99),
                        samples=np.zeros((1, 4)))
    with pytest.raises(ValueError, match="version 99"):
        load_traces(path)


def test_save_traces_validation(tmp_path):
    with pytest.raises(ValueError):
        save_traces(tmp_path / "x.npz", [])
    bad = [make_trace("a", 1), EMTrace(np.zeros(10), "b", bytes(16), 0.2)]
    with pytest.raises(ValueError):
        save_traces(tmp_path / "y.npz", bad)


def test_load_traces_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_traces(tmp_path / "missing.npz")


def test_to_jsonable_handles_numpy_and_dataclasses(population_study):
    payload = to_jsonable(population_study.characterisations["HT1"])
    assert isinstance(payload, dict)
    assert isinstance(payload["false_negative_rate"], float)
    assert to_jsonable(np.float64(1.5)) == 1.5
    assert to_jsonable(np.array([1, 2])) == [1, 2]
    assert to_jsonable(b"\x01\x02") == "0102"
    assert to_jsonable({"k": (1, 2)}) == {"k": [1, 2]}


def test_save_and_load_result_round_trip(tmp_path, population_study):
    path = save_result(tmp_path / "headline",
                       population_study.false_negative_rates())
    assert path.suffix == ".json"
    loaded = load_result(path)
    assert set(loaded) == {"HT1", "HT3"}
    # The file is valid JSON.
    json.loads(path.read_text())
    with pytest.raises(FileNotFoundError):
        load_result(tmp_path / "missing.json")


def test_cli_parser_has_all_subcommands():
    parser = build_parser()
    for command in ("trojans", "delay", "em", "headline", "experiments"):
        args = parser.parse_args([command, "--quick"])
        assert args.command == command
        assert args.quick


def test_cli_parser_campaign_store_and_shard_flags():
    parser = build_parser()
    args = parser.parse_args(["campaign", "run", "--store", "artifacts",
                              "--shard", "1/4"])
    assert args.store == "artifacts"
    assert args.shard == (1, 4)
    args = parser.parse_args(["campaign", "merge", "a", "b", "--out", "m"])
    assert args.shards == ["a", "b"] and args.out == "m"
    for bad_shard in ("2/2", "x/2", "1", "-1/2", "1/0"):
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "run", "--shard", bad_shard])


_EM_CELL = ["campaign", "run", "--trojan", "HT1", "--dies", "2",
            "--metric", "l1"]


@pytest.mark.parametrize("argv, message", [
    (_EM_CELL + ["--plaintexts", "0"], "num_plaintexts must be >= 1"),
    (_EM_CELL + ["--pk-pairs", "0"], "num_pk_pairs must be >= 1"),
    (_EM_CELL + ["--retries", "-1"], "max_retries must be >= 0"),
    (_EM_CELL + ["--cell-timeout", "0"], "cell_timeout_s must be positive"),
    (["campaign", "run", "--trojan", "HT1", "--dies", "0"], "die_counts"),
    (["campaign", "run", "--trojan", "HTX", "--dies", "2"], "'HTX'"),
    (_EM_CELL + ["--trojan", "HT1"], "trojans must not repeat"),
    (_EM_CELL + ["--dies", "2"], "die_counts must not repeat"),
    (_EM_CELL + ["--metric", "l1"], "metrics must not repeat"),
    (["attack", "recover", "--trojan", "HTX"], "'HTX'"),
    (["attack", "recover", "--dies", "0"], "die_counts"),
    (["attack", "sweep", "--dies", "1"], "die_counts"),
    (["campaign", "report", "MISSING"], "missing.json"),
    (["campaign", "report", "LIST"], "not a campaign summary"),
], ids=["plaintexts", "pk-pairs", "retries", "cell-timeout", "dies",
        "trojan", "repeated-trojan", "repeated-dies", "repeated-metric",
        "recover-trojan", "recover-dies", "sweep-dies", "report-missing",
        "report-not-a-summary"])
def test_cli_spec_and_input_errors_exit_2_on_one_line(argv, message, capsys,
                                                       tmp_path):
    """Bad flags are rejected before any cell runs: one ``error:`` line
    on stderr, nothing on stdout, exit status 2."""
    (tmp_path / "list.json").write_text("[]")
    files = {"MISSING": "missing.json", "LIST": "list.json"}
    argv = [str(tmp_path / files[arg]) if arg in files else arg
            for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ") and message in lines[0]


def _saved_summary(directory, *, failed=False, shard=None):
    """A two-cell campaign summary saved under ``directory`` (cell 1 a
    quarantined failed cell when ``failed``) and its result."""
    from repro.campaigns import (
        CampaignCellResult,
        CampaignResult,
        CampaignRow,
        CampaignSpec,
    )

    spec = CampaignSpec(name="report", trojans=("HT1",), die_counts=(2,),
                        metrics=("l1", "local_maxima_sum"))
    cells = []
    for cell in spec.grid():
        if failed and cell.index == 1:
            cells.append(CampaignCellResult.failed(
                cell, error="attempt 1: RuntimeError: boom", attempts=1))
            continue
        row = CampaignRow(cell_index=cell.index, num_dies=2,
                          variant="paper", metric=cell.metric,
                          trojan="HT1", area_fraction=0.005, mu=19.0,
                          sigma=5.5, false_negative_rate=0.045,
                          detection_probability=0.955)
        cells.append(CampaignCellResult(
            index=cell.index, num_dies=2, variant="paper",
            metric=cell.metric, rows=[row], golden_score_mean=100.0,
            golden_score_std=4.0, elapsed_s=0.25))
    result = CampaignResult(spec=spec, cells=cells, elapsed_s=1.5,
                            shard=shard)
    return result.save(directory), result


def test_campaign_report_prints_what_campaign_run_printed(tmp_path, capsys):
    path, result = _saved_summary(tmp_path / "out")
    assert main(["campaign", "report", str(path)]) == 0
    assert capsys.readouterr().out == (
        "campaign 'report' (2 cells, 1.50 s)\n" + result.report() + "\n")


def test_campaign_report_names_a_quarantined_cell_and_exits_1(tmp_path,
                                                              capsys):
    path, result = _saved_summary(tmp_path / "out", failed=True)
    assert main(["campaign", "report", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == ("campaign 'report' (2 cells, 1.50 s)\n" + result.report()
                   + "\n")
    assert "cell 1 FAILED after 1 attempt(s): attempt 1: RuntimeError: " \
        "boom" in out
    assert "l1" in out and "local_maxima_sum" not in out


def test_campaign_report_reads_a_shard_directory(tmp_path, capsys):
    path, result = _saved_summary(tmp_path / "shard0", shard=(0, 1))
    assert main(["campaign", "report", str(path.parent)]) == 0
    from_directory = capsys.readouterr().out
    assert main(["campaign", "report", str(path)]) == 0
    assert from_directory == capsys.readouterr().out
    assert result.report() in from_directory


def test_cli_trojans_command(capsys):
    exit_code = main(["trojans", "--quick"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "HT3" in output
    assert "% of AES" in output


def test_cli_delay_command(capsys):
    exit_code = main(["delay", "--quick", "--trojan", "HT_comb"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Delay-based detection" in output
    assert "HT_comb" in output


def _delay_maxima(output: str) -> dict:
    """``design -> max |Delta D|`` cell of a ``delay`` report."""
    rows = [line.split() for line in output.splitlines()
            if line.split()[:1] and line.split()[0].startswith(
                ("Clean", "HT"))]
    return {row[0]: f"{row[1]} {row[2]}" for row in rows}


def test_cli_delay_measures_the_pairs_fig3_measures(capsys):
    """``delay`` draws its (P, K) pairs from the spec as Fig. 3 does, so
    both report the same per-device maxima, and ``--seed`` moves them."""
    from repro.campaigns import CampaignEngine
    from repro.experiments import fig3_delay, suite_spec

    assert main(["delay", "--quick"]) == 0
    printed = _delay_maxima(capsys.readouterr().out)
    fig3 = fig3_delay.run(CampaignEngine(suite_spec(quick=True)))
    expected = {label: f"{comparison.max_difference_ps:.0f} ps"
                for label, comparison in fig3.study.comparisons.items()}
    assert set(expected) == {"Clean1", "Clean2", "HT_comb", "HT_seq"}
    assert printed == expected

    assert main(["delay", "--quick", "--seed", "5"]) == 0
    reseeded = _delay_maxima(capsys.readouterr().out)
    assert set(reseeded) == set(printed)
    assert reseeded != printed


def test_cli_em_command(capsys):
    exit_code = main(["em", "--quick"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Same-die EM detection" in output
