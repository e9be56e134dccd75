"""Fault-tolerant campaign supervision: retries, quarantine, chaos runs.

The acceptance tests point the paper's own methodology at the runner:
a :class:`~chaos.plan.FaultPlan`, run as the supervisor's
``before_attempt`` hook, injects worker crashes and a mid-write
truncation into a two-worker store-backed campaign, and a hang plus a
crash into a one-chunk one, and each merged result must come out
bit-identical to a clean serial run — with exactly the one scripted
torn object in quarantine and nothing quarantined spuriously.  Hangs
expire on the :class:`~chaos.plan.HangClock`, so no test waits out a
real cell timeout.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaigns import (
    CampaignCellResult,
    CampaignEngine,
    CampaignResult,
    CampaignSpec,
    SupervisorPolicy,
    merge_campaign_results,
)
from repro.store import ArtifactStore, spec_content_fragment

from chaos import FaultInjection, FaultKind, FaultPlan, supervise

#: One small two-chunk grid shared by every test in this module; retry
#: backoff is near-zero so retries don't dominate the test wall-clock.
SPEC_KWARGS = dict(
    name="supervised", trojans=("HT1",), die_counts=(2, 3),
    metrics=("local_maxima_sum", "l1"), seed=7,
    max_retries=2, retry_backoff_s=0.01,
)

#: The one-chunk grid of the hang tests: one die count, so one worker
#: runs the chunk and a hung attempt is the only one in flight when the
#: hang clock jumps.
ONE_CHUNK_KWARGS = dict(SPEC_KWARGS, name="one-chunk", die_counts=(2,),
                        workers=2, cell_timeout_s=15.0)


@pytest.fixture(scope="module")
def serial_rows():
    result = CampaignEngine(CampaignSpec(**SPEC_KWARGS)).run()
    return [row.to_dict() for row in result.rows()]


@pytest.fixture(scope="module")
def one_chunk_rows():
    spec = CampaignSpec(**{**ONE_CHUNK_KWARGS, "workers": 1})
    return [row.to_dict() for row in CampaignEngine(spec).run().rows()]


def _flaky_run_cell(engine, fail_attempts):
    """Wrap ``engine.run_cell`` to raise on scripted (cell, attempt)s."""
    seen: dict = {}
    original = engine.run_cell

    def run_cell(cell):
        attempt = seen.get(cell.index, 0) + 1
        seen[cell.index] = attempt
        if (cell.index, attempt) in fail_attempts:
            raise RuntimeError(f"scripted failure {cell.index}/{attempt}")
        return original(cell)

    engine.run_cell = run_cell
    return seen


# -- spec knobs ---------------------------------------------------------------


def test_spec_validates_fault_tolerance_knobs():
    with pytest.raises(ValueError, match="max_retries"):
        CampaignSpec(trojans=("HT1",), die_counts=(2,), max_retries=-1)
    with pytest.raises(ValueError, match="cell_timeout_s"):
        CampaignSpec(trojans=("HT1",), die_counts=(2,), cell_timeout_s=0.0)
    with pytest.raises(ValueError, match="retry_backoff_s"):
        CampaignSpec(trojans=("HT1",), die_counts=(2,),
                     retry_backoff_s=-0.5)
    spec = CampaignSpec(trojans=("HT1",), die_counts=(2,), max_retries=5,
                        cell_timeout_s=30.0, retry_backoff_s=0.0)
    round_tripped = CampaignSpec.from_dict(
        json.loads(json.dumps(spec.to_dict())))
    assert round_tripped.max_retries == 5
    assert round_tripped.cell_timeout_s == 30.0
    assert round_tripped.retry_backoff_s == 0.0


def test_retry_knobs_are_execution_only():
    """Tuning retries/timeouts must keep every stored artifact warm."""
    patient = CampaignSpec(**SPEC_KWARGS)
    impatient = CampaignSpec(**{**SPEC_KWARGS, "max_retries": 0,
                                "cell_timeout_s": 1.0,
                                "retry_backoff_s": 9.0})
    assert spec_content_fragment(patient.to_dict()) == \
        spec_content_fragment(impatient.to_dict())


def test_policy_backoff_is_deterministic_and_exponential():
    policy = SupervisorPolicy(retry_backoff_s=0.5, seed=3)
    first = policy.backoff_s(cell_index=1, attempt=1)
    assert first == policy.backoff_s(cell_index=1, attempt=1)
    assert 0.25 <= first <= 0.75
    assert 1.0 <= policy.backoff_s(cell_index=1, attempt=3) <= 3.0
    assert SupervisorPolicy(retry_backoff_s=0.0).backoff_s(1, 1) == 0.0


# -- fault-plan validation ----------------------------------------------------


def test_fault_plan_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultInjection(cell_index=0, attempt=1, kind="meteor")
    with pytest.raises(ValueError, match="attempt numbers"):
        FaultInjection(cell_index=0, attempt=0, kind=FaultKind.CRASH)
    duplicate = (FaultInjection(0, 1, FaultKind.CRASH),
                 FaultInjection(0, 1, FaultKind.HANG))
    with pytest.raises(ValueError, match="one fault per"):
        FaultPlan(injections=duplicate, flag_dir=tmp_path)
    with pytest.raises(ValueError, match="flag_dir"):
        FaultPlan(injections=(FaultInjection(0, 1, FaultKind.HANG),))
    plan = FaultPlan(injections=(FaultInjection(2, 1, FaultKind.CRASH),
                                 FaultInjection(3, 1, FaultKind.INTERRUPT)))
    assert plan.lookup(2, 1).kind == FaultKind.CRASH
    assert plan.lookup(3, 1).kind == FaultKind.INTERRUPT
    assert plan.lookup(2, 2) is None


# -- serial retry semantics ---------------------------------------------------


def test_serial_run_retries_transient_failures(tmp_path, serial_rows):
    spec = CampaignSpec(**SPEC_KWARGS)
    engine = CampaignEngine(spec, store=tmp_path / "store")
    attempts = _flaky_run_cell(engine, {(0, 1), (2, 1), (2, 2)})
    result = engine.run()
    assert [row.to_dict() for row in result.rows()] == serial_rows
    assert result.failed_cells() == []
    assert attempts[0] == 2 and attempts[2] == 3
    by_index = {cell.index: cell for cell in result.cells}
    assert by_index[0].attempts == 2
    assert by_index[2].attempts == 3
    assert by_index[1].attempts == 1


def test_serial_poison_cell_yields_failed_row_and_recovers_on_resume(
        tmp_path, serial_rows):
    spec = CampaignSpec(**SPEC_KWARGS)
    store_root = tmp_path / "store"
    engine = CampaignEngine(spec, store=store_root)
    _flaky_run_cell(engine, {(1, attempt) for attempt in range(1, 10)})
    degraded = engine.run(artifact_dir=tmp_path / "out")

    failed = degraded.failed_cells()
    assert [cell.index for cell in failed] == [1]
    assert failed[0].status == "failed"
    assert failed[0].attempts == spec.max_retries + 1
    assert "scripted failure 1/3" in failed[0].error
    # Reporting skips the quarantined cell but names it.
    assert len(degraded.rows()) == len(serial_rows) - 1
    assert "cell 1 FAILED after 3 attempt(s)" in degraded.report()
    # The CSV carries an explicit degraded stub row.
    csv_text = (tmp_path / "out" / f"{spec.name}.csv").read_text()
    assert "failed" in csv_text and "status" in csv_text
    # The JSON summary round-trips the failed cell.
    loaded = CampaignResult.from_dict(
        json.loads((tmp_path / "out" / f"{spec.name}.json").read_text()))
    assert [cell.index for cell in loaded.failed_cells()] == [1]

    # Resume: the failed record counts as pending; a healthy engine
    # retries exactly that cell and the result comes out whole.
    healthy = CampaignEngine(spec, store=store_root)
    computed = _flaky_run_cell(healthy, set())
    recovered = healthy.run()
    assert recovered.failed_cells() == []
    assert [row.to_dict() for row in recovered.rows()] == serial_rows
    assert set(computed) == {1}


def test_failed_cell_leaves_no_record_in_the_store(tmp_path):
    """Only computed cells are recorded: a cell that failed every retry
    has no completion record, and ``campaign.json`` alone names it."""
    spec = CampaignSpec(**SPEC_KWARGS)
    store_root = tmp_path / "store"
    engine = CampaignEngine(spec, store=store_root)
    _flaky_run_cell(engine, {(1, attempt) for attempt in range(1, 10)})
    engine.run(artifact_dir=tmp_path / "out")

    store = ArtifactStore(store_root)
    recorded = {cell.index for cell in spec.grid()
                if engine._cell_key(cell) in store}
    assert recorded == {cell.index for cell in spec.grid()} - {1}
    summary = json.loads(
        (tmp_path / "out" / f"{spec.name}.json").read_text())
    assert {cell["index"]: cell["status"] for cell in summary["cells"]}[1] \
        == "failed"
    assert store.fsck().clean()


# -- merge semantics ----------------------------------------------------------


def test_merge_prefers_ok_over_failed_duplicates(serial_rows):
    spec = CampaignSpec(**SPEC_KWARGS)
    grid = spec.grid()
    ok = CampaignEngine(spec).run()
    failed_cells = [CampaignCellResult.failed(cell, error="boom", attempts=3)
                    for cell in grid]
    degraded = CampaignResult(spec=spec, cells=failed_cells)
    for ordering in ([degraded, ok], [ok, degraded]):
        merged = merge_campaign_results(ordering)
        assert merged.failed_cells() == []
        assert [row.to_dict() for row in merged.rows()] == serial_rows
    # A degraded-only merge stays degraded instead of erroring: failed
    # cells count as coverage.
    still_degraded = merge_campaign_results([degraded])
    assert len(still_degraded.failed_cells()) == len(grid)


def test_merge_truncates_missing_cell_listing():
    spec = CampaignSpec(name="wide", trojans=("HT1",),
                        die_counts=(2, 3, 4, 5),
                        metrics=("local_maxima_sum", "l1", "max_difference"),
                        seed=7)
    assert spec.num_cells() == 12
    empty = CampaignResult(spec=spec, cells=[])
    with pytest.raises(ValueError, match="missing cell") as excinfo:
        merge_campaign_results([empty])
    message = str(excinfo.value)
    assert "12 missing cell indices" in message
    assert "… and 4 more" in message
    assert "11" not in message  # the tail is elided, not enumerated


# -- fleet size ---------------------------------------------------------------


def test_one_chunk_run_forks_one_worker(tmp_path, one_chunk_rows,
                                        monkeypatch):
    """``workers=2`` over a one-chunk grid forks one worker: the second
    would have nothing to take while the first runs the whole chunk."""
    from repro.campaigns import supervisor

    forks = []
    original = supervisor.CampaignSupervisor._spawn_worker

    def spawn_worker(self):
        forks.append(len(self._workers))
        return original(self)

    monkeypatch.setattr(supervisor.CampaignSupervisor, "_spawn_worker",
                        spawn_worker)
    spec = CampaignSpec(**ONE_CHUNK_KWARGS)
    result = CampaignEngine(spec, store=tmp_path / "store").run()

    assert [row.to_dict() for row in result.rows()] == one_chunk_rows
    assert forks == [0]


class _PidRecordingStore(ArtifactStore):
    """A store whose puts append the writing process's pid to a file."""

    def __init__(self, root, pid_log):
        super().__init__(root)
        self.pid_log = pid_log

    def put_object(self, entry, data):
        with open(self.pid_log, "a") as log:
            log.write(f"{os.getpid()}\n")
        return super().put_object(entry, data)


def test_workers_run_cells_on_the_parents_engine(tmp_path, serial_rows):
    """A worker is a fork of the run's engine: the parent's own store
    object (a subclass here) writes every cell's artifacts, from the
    worker processes, and the rows match a serial run."""
    pid_log = tmp_path / "pids.txt"
    pid_log.write_text("")
    store = _PidRecordingStore(tmp_path / "store", pid_log)
    spec = CampaignSpec(**{**SPEC_KWARGS, "workers": 2})
    result = CampaignEngine(spec, store=store).run()

    assert [row.to_dict() for row in result.rows()] == serial_rows
    writers = {int(pid) for pid in pid_log.read_text().split()}
    assert writers, "the inherited store never wrote"
    assert os.getpid() not in writers, "the parent ran a cell itself"


# -- chaos acceptance ---------------------------------------------------------


def test_chaos_run_matches_clean_serial_run_bit_for_bit(tmp_path,
                                                        serial_rows,
                                                        monkeypatch):
    """Acceptance: 3 crashes + 1 mid-write truncation into a two-worker
    store-backed campaign; the run completes, quarantines exactly the
    scripted torn object, and the merged rows are bit-identical to the
    clean serial run."""
    plan = FaultPlan(injections=(
        # Three worker crashes (one cell crashes twice, succeeding on
        # its third and final attempt).
        FaultInjection(cell_index=0, attempt=1, kind=FaultKind.CRASH),
        FaultInjection(cell_index=1, attempt=1, kind=FaultKind.CRASH),
        FaultInjection(cell_index=2, attempt=2, kind=FaultKind.CRASH),
        # One torn store write: cell 2's first attempt records a
        # manifest entry then truncates the object and dies; the retry
        # must quarantine it on read and recompute.
        FaultInjection(cell_index=2, attempt=1, kind=FaultKind.TRUNCATE),
    ))
    supervise(monkeypatch, plan)
    store_root = tmp_path / "store"
    spec = CampaignSpec(**{**SPEC_KWARGS, "workers": 2,
                           "cell_timeout_s": 15.0})
    engine = CampaignEngine(spec, store=store_root)
    result = engine.run()

    assert result.failed_cells() == []
    assert [row.to_dict() for row in result.rows()] == serial_rows
    # Retries were really consumed (crash coordinates burnt attempts).
    by_index = {cell.index: cell for cell in result.cells}
    assert {index: cell.attempts for index, cell in by_index.items()} == \
        {0: 2, 1: 2, 2: 3, 3: 1}
    # Exactly the scripted torn object was quarantined — nothing
    # spurious — and the store audit comes back clean.
    store = ArtifactStore(store_root)
    assert len(list(store.quarantine_dir.iterdir())) == 1
    assert store.fsck().clean()


def test_torn_population_put_is_quarantined_and_recomputed(tmp_path,
                                                          one_chunk_rows,
                                                          monkeypatch):
    """The first write of cell 0 is its EM population, a streamed array
    put: the chaos store tears it after the manifest entry and dies.
    The retry quarantines the torn ``.npz`` on read and recomputes the
    population, and the rows match a serial run.  (The fault store
    sees array puts only because they take the one put path.)"""
    plan = FaultPlan(injections=(
        FaultInjection(cell_index=0, attempt=1, kind=FaultKind.TRUNCATE),
    ))
    supervise(monkeypatch, plan)
    spec = CampaignSpec(**ONE_CHUNK_KWARGS)
    result = CampaignEngine(spec, store=tmp_path / "store").run()

    assert result.failed_cells() == []
    assert [row.to_dict() for row in result.rows()] == one_chunk_rows
    assert {cell.index: cell.attempts for cell in result.cells} == \
        {0: 2, 1: 1}
    store = ArtifactStore(tmp_path / "store")
    quarantined = [path.name for path in store.quarantine_dir.iterdir()]
    assert len(quarantined) == 1 and quarantined[0].endswith(".npz"), \
        quarantined
    assert store.fsck().clean()


def test_hung_worker_is_killed_and_its_cell_retried(tmp_path, one_chunk_rows,
                                                    monkeypatch):
    """A hang, resolved only by the supervisor's timeout kill, then a
    crash: the one-chunk run completes bit-identical to a serial run,
    without waiting out the 15 s cell timeout."""
    plan = FaultPlan(injections=(
        FaultInjection(cell_index=0, attempt=1, kind=FaultKind.HANG),
        FaultInjection(cell_index=1, attempt=1, kind=FaultKind.CRASH),
    ), flag_dir=tmp_path / "flags")
    spec = CampaignSpec(**ONE_CHUNK_KWARGS)
    supervise(monkeypatch, plan, spec.cell_timeout_s)
    result = CampaignEngine(spec, store=tmp_path / "store").run()

    assert result.failed_cells() == []
    assert [row.to_dict() for row in result.rows()] == one_chunk_rows
    assert {cell.index: cell.attempts for cell in result.cells} == \
        {0: 2, 1: 2}
    assert (tmp_path / "flags" / "hang-0-1.flag").exists()


def test_chaos_timeout_exhaustion_quarantines_the_hanging_cell(
        tmp_path, one_chunk_rows, monkeypatch):
    """A cell that hangs on every attempt becomes a failed row, not an
    aborted campaign — and a healthy rerun recovers it."""
    plan = FaultPlan(injections=tuple(
        FaultInjection(cell_index=1, attempt=attempt, kind=FaultKind.HANG)
        for attempt in (1, 2)), flag_dir=tmp_path / "flags")
    store_root = tmp_path / "store"
    spec = CampaignSpec(**{**ONE_CHUNK_KWARGS, "max_retries": 1})
    with monkeypatch.context() as patch:
        supervise(patch, plan, spec.cell_timeout_s)
        degraded = CampaignEngine(spec, store=store_root).run()
    failed = degraded.failed_cells()
    assert [cell.index for cell in failed] == [1]
    assert failed[0].attempts == 2
    assert "cell_timeout_s=15.0" in failed[0].error
    assert len(degraded.rows()) == len(one_chunk_rows) - 1

    recovered = CampaignEngine(spec, store=store_root).run()
    assert recovered.failed_cells() == []
    assert [row.to_dict() for row in recovered.rows()] == one_chunk_rows
