"""Untrusted campaign input: spec JSON and CLI argv, fuzzed.

``campaign run --spec`` reads a hand-written JSON file and ``campaign
run``/``attack sweep`` read argv.  Every input either stops with one
``error: …`` line on stderr and exit status 2, or reaches the engine
with a well-typed spec that round-trips through JSON.  None may end in
a traceback, run cells it will only quarantine, or be silently coerced.
The engine's ``run`` is stubbed: what is under test is the validation
in front of it.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.campaigns.spec import KNOWN_METRICS
from repro.cli import main


class _Ran(Exception):
    """Raised by the stubbed ``CampaignEngine.run``: the input was valid."""


@pytest.fixture
def stub_run(monkeypatch):
    """Stub ``CampaignEngine.run``; returns the specs that reached it."""
    specs = []

    def run(self, artifact_dir=None, shard=None):
        specs.append(self.spec)
        raise _Ran

    monkeypatch.setattr(CampaignEngine, "run", run)
    return specs


def _assert_well_typed(spec: CampaignSpec) -> None:
    """A spec that reached the engine holds only the declared types."""
    for name in ("seed", "workers", "max_retries", "num_pk_pairs",
                 "delay_repetitions", "num_plaintexts"):
        assert type(getattr(spec, name)) is int, name
    assert all(type(count) is int for count in spec.die_counts)
    assert all(type(name) is str for name in spec.trojans + spec.metrics)
    assert type(spec.save_traces) is bool
    assert spec.cell_timeout_s is None or spec.cell_timeout_s > 0
    assert spec.retry_backoff_s >= 0
    round_tripped = CampaignSpec.from_dict(
        json.loads(json.dumps(spec.to_dict())))
    assert round_tripped == spec


def _outcome(argv, capsys, specs) -> str:
    """``"ran"`` or ``"error"``; fails on anything else."""
    try:
        code = main(argv)
    except _Ran:
        capsys.readouterr()
        _assert_well_typed(specs[-1])
        return "ran"
    except SystemExit as exit_:  # argparse usage errors
        code = exit_.code
    err = capsys.readouterr().err
    assert code == 2, (argv, code, err)
    error_lines = [line for line in err.splitlines() if "error: " in line]
    assert len(error_lines) == 1, (argv, err)
    assert err.splitlines()[-1] == error_lines[0], (argv, err)
    return "error"


# -- the spec-file cases that used to escape validation -----------------------


@pytest.mark.parametrize("payload, message", [
    ({"trojans": None}, "trojans must be a list"),
    ({"die_counts": 2}, "die_counts must be a list"),
    ({"variants": [{"x": 1}]}, "an object with a 'name'"),
    ({"num_pk_pairs": "3"}, "num_pk_pairs must be an integer"),
    ({"seed": "x"}, "seed must be an integer"),
    ([], "must be a JSON object"),
    ({"die_counts": [2.5]}, "die_counts entry must be an integer"),
    ({"workers": True}, "workers must be an integer"),
    ({"trojans": "HT1"}, "trojans must be a list"),
    ({"metrics": "l1"}, "metrics must be a list"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"cell_timeout_s": math.nan}, "cell_timeout_s must be positive"),
    ({"plaintext": "zz"}, "non-hexadecimal"),
    ({"variants": [{"name": "v", "em_overrides": {"noise.nope": 1.0}}]},
     "unknown field(s) ['nope'] in 'noise'"),
    ({"variants": [{"name": "v", "em_overrides": {"nope": 1.0}}]},
     "unknown acquisition config field 'nope'"),
    ({"variants": [{"name": "v",
                    "em_overrides": {"noise.sigma_single_shot": "x"}}]},
     "override noise.sigma_single_shot"),
], ids=["trojans-null", "die-counts-int", "variant-without-name",
        "pk-pairs-str", "seed-str", "top-level-list", "die-count-float",
        "workers-bool", "trojans-str", "metrics-str", "seed-negative",
        "timeout-nan", "plaintext-not-hex", "nested-override-path",
        "override-path", "override-value"])
def test_malformed_spec_file_exits_2_on_one_line(payload, message, tmp_path,
                                                  capsys, stub_run):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(payload))
    assert main(["campaign", "run", "--spec", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ") and message in lines[0], lines
    assert stub_run == []


# -- fuzzed spec JSON ---------------------------------------------------------

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 2**40)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=3)
            | st.sampled_from(["HT1", "HT3", "l1", "paper", "00" * 16]))
_KEYS = st.text(max_size=3) | st.sampled_from(
    ["name", "em_overrides", "noise.sigma_single_shot", "noise.nope",
     "oscilloscope.num_averages", "probe.position", "noise", "nope"])
_JSON = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(_KEYS, children, max_size=3)),
    max_leaves=6)

_OVERRIDES = st.dictionaries(
    st.sampled_from(["noise.sigma_single_shot", "oscilloscope.num_averages",
                     "clock_frequency_mhz", "quantise", "probe.position",
                     "noise.nope", "nope", "noise"]),
    st.sampled_from([0, 1, 250, 0.5, 400.0, -1.0, True, "x", None, [1, 2],
                     [1.0]]),
    max_size=2)
_VARIANT = st.fixed_dictionaries(
    {"name": st.sampled_from(["paper", "noisy", "", 5])},
    optional={"em_overrides": _OVERRIDES | _JSON})

#: Per field, plausible values (zeros, repeats and edge cases included)
#: or arbitrary JSON.
_FIELDS = {
    "name": st.sampled_from(["c", ""]),
    "trojans": st.lists(st.sampled_from(["HT1", "HT2", "HT3", "HTX"]),
                        max_size=3),
    "die_counts": st.lists(st.integers(0, 4), max_size=3),
    "variants": st.lists(_VARIANT, max_size=2),
    "metrics": st.lists(st.sampled_from(list(KNOWN_METRICS) + ["bogus"]),
                        max_size=3),
    "seed": st.integers(-2, 2**40),
    "workers": st.integers(-1, 3),
    "max_retries": st.integers(-1, 3),
    "cell_timeout_s": st.none() | st.floats(-1, 30) | st.just(math.nan),
    "retry_backoff_s": st.floats(-1, 2) | st.just(math.nan),
    "num_pk_pairs": st.integers(0, 4),
    "delay_repetitions": st.integers(0, 3),
    "num_plaintexts": st.integers(0, 4),
    "save_traces": st.booleans(),
    "plaintext": st.sampled_from(["00" * 16, "00" * 8, "zz"]),
    "glitch_offsets_ps": st.lists(st.floats(-10, 3000) | st.just(math.nan),
                                  max_size=2),
    "bogus_field": st.integers(),
}
_SPEC_DICTS = st.fixed_dictionaries(
    {}, optional={name: values | _JSON for name, values in _FIELDS.items()})


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_SPEC_DICTS | _JSON)
def test_fuzzed_spec_json_errors_on_one_line_or_runs(payload, tmp_path,
                                                      capsys, stub_run):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(payload))
    _outcome(["campaign", "run", "--spec", str(spec_path)], capsys,
             stub_run)


# -- fuzzed argv --------------------------------------------------------------

_SHARDS = ["0/1", "1/2", "2/2", "x/2", "1", "-1/2", "1/0", "0/0", "0//1",
           " 0/2", ""]
_COMMON_FLAGS = {
    "--trojan": ["HT1", "HT2", "HTX", ""],
    "--dies": ["0", "1", "2", "3", "-1", "2.5", "x"],
    "--seed": ["0", "7", "-1", "x", "99999999999999999999"],
    "--plaintexts": ["0", "1", "3", "-2", "x"],
    "--workers": ["0", "1", "2", "-3", "x"],
    "--retries": ["0", "2", "-1"],
    "--cell-timeout": ["0", "1.5", "-1", "nan", "inf", "x"],
    "--shard": _SHARDS,
    "--name": ["", "c"],
}
_RUN_FLAGS = dict(_COMMON_FLAGS, **{
    "--metric": list(KNOWN_METRICS) + ["bogus"],
    "--pk-pairs": ["0", "1", "x"],
    "--delay-repetitions": ["0", "2"],
})
_SWEEP_FLAGS = dict(_COMMON_FLAGS, **{
    "--offset": ["100", "0", "-5", "nan", "x"],
    "--width": ["50", "0"],
    "--period": ["1000", "inf"],
})


def _argv(command, flags):
    pairs = st.lists(st.sampled_from(sorted(flags)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(flags[flag]))),
        max_size=6)
    return pairs.map(lambda chosen: command + [
        token for pair in chosen for token in pair])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv(["campaign", "run"], _RUN_FLAGS)
       | _argv(["attack", "sweep"], _SWEEP_FLAGS))
def test_fuzzed_argv_errors_on_one_line_or_runs(argv, capsys, stub_run):
    _outcome(argv, capsys, stub_run)


# -- store arguments ----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["campaign", "run", "--trojan", "HT1", "--dies", "2", "--store", "{file}"],
    ["attack", "sweep", "--store", "{file}"],
    ["attack", "recover", "--store", "{file}"],
    ["experiments", "--quick", "--store", "{file}"],
    ["store", "fsck", "{file}"],
    ["store", "gc", "{file}"],
    ["store", "leases", "{file}"],
], ids=["campaign-run", "attack-sweep", "attack-recover", "experiments",
        "fsck", "gc", "leases"])
def test_store_path_that_is_a_file_exits_2_on_one_line(argv, tmp_path,
                                                        capsys, stub_run):
    regular = tmp_path / "notadir"
    regular.write_text("")
    argv = [token.replace("{file}", str(regular)) for token in argv]
    assert _outcome(argv, capsys, stub_run) == "error"
    assert stub_run == []


@pytest.mark.parametrize("argv", [
    ["campaign", "run", "--trojan", "HT1", "--store", "{store}",
     "--remote", "{remote}"],
    ["store", "sync", "{store}", "--remote", "{remote}"],
], ids=["campaign-run-remote", "store-sync"])
def test_removed_remote_tier_exits_2_on_one_line(argv, tmp_path, capsys,
                                                 stub_run):
    argv = [token.format(store=tmp_path / "store",
                         remote=tmp_path / "remote") for token in argv]
    assert _outcome(argv, capsys, stub_run) == "error"
    assert stub_run == []
    assert not (tmp_path / "remote").exists()
