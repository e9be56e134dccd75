"""Fault-tolerant supervised execution of campaign grid cells.

:class:`CampaignSupervisor` replaces the engine's former bare
``ProcessPoolExecutor.map``: instead of one opaque ``map`` whose first
crashed worker raises ``BrokenProcessPool`` and discards every other
chunk's in-flight work, the supervisor owns a small fleet of directly
managed ``multiprocessing.Process`` workers and feeds them **one cell at
a time** over per-worker pipes:

* **chunk affinity, per-cell dispatch** — cells are still grouped by
  acquisition key (so a worker's caches are reused across the metrics of
  one (die count, variant) point), but each worker receives its chunk
  cell by cell.  A crash or timeout therefore identifies the offending
  cell *exactly* — the degenerate, precise limit of bisecting a failed
  chunk — and only costs that one attempt; the chunk's remaining cells
  go back on the queue untouched.
* **bounded retries with backoff** — a failed attempt (worker death,
  raised exception, or per-cell timeout) is retried up to
  ``spec.max_retries`` times with exponential backoff plus deterministic
  jitter before the cell is quarantined.
* **poison-cell quarantine** — a cell that fails every attempt becomes
  an explicit ``failed`` :class:`~repro.campaigns.engine.CampaignCellResult`
  row (carried through save/merge/CSV, never recorded to the store)
  instead of aborting the campaign: the grid completes degraded, and a
  rerun with the same store retries only the failed cells.
* **per-cell timeout** — ``spec.cell_timeout_s`` bounds one attempt; a
  hung worker is SIGKILLed (workers ignore SIGINT/SIGTERM, so only an
  unignorable signal reliably ends a deadlocked kernel call) and the
  attempt enters the normal retry path.
* **graceful drain** — SIGINT/SIGTERM stops feeding new cells, waits
  for in-flight cells to finish and record their completion in the
  store, then raises ``KeyboardInterrupt`` — the store is left
  resumable with every finished cell manifest-complete.

Tests reach these paths through one seam: a ``before_attempt`` hook
the worker calls before each cell, and the supervisor's ``clock``, so a
test can expire a hung attempt without waiting for it.

Worker liveness is tracked through process **sentinels** passed to
``multiprocessing.connection.wait`` alongside the result pipes: under
the ``fork`` start method sibling workers inherit each other's pipe
ends, so EOF is not a reliable death signal, but a sentinel fires the
moment the process exits no matter how it died.  Results travel over
per-worker pipes rather than one shared queue because a queue's feeder
thread can leave a partial multi-part write when its process is killed
mid-``put``; ``Connection.send`` completes synchronously, so a worker
killed after a reply never leaves half of it in the pipe.
"""

from __future__ import annotations

import heapq
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

from ..store.retry import backoff_delay_s

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import CampaignCellResult, CampaignEngine
    from .spec import GridCell

#: Main-loop wake-up period; bounds timeout detection latency.
POLL_INTERVAL_S = 0.05


@dataclass
class SupervisorPolicy:
    """Fault-tolerance knobs of one supervised run.

    Built from the campaign spec by default
    (:meth:`from_spec`); tests override individual knobs directly.
    """

    workers: int = 2
    #: Retries *after* the first attempt; a cell gets
    #: ``max_retries + 1`` attempts before it is quarantined as failed.
    max_retries: int = 2
    #: Wall-clock bound of one attempt; ``None`` disables the timeout.
    cell_timeout_s: Optional[float] = None
    #: Base of the exponential retry backoff (attempt ``n`` waits
    #: ``retry_backoff_s * 2**(n-1)``, jittered deterministically).
    retry_backoff_s: float = 0.5
    #: Jitter / backoff determinism seed (the spec seed by default).
    seed: int = 0

    @classmethod
    def from_spec(cls, spec: Any) -> "SupervisorPolicy":
        return cls(
            workers=spec.workers,
            max_retries=spec.max_retries,
            cell_timeout_s=spec.cell_timeout_s,
            retry_backoff_s=spec.retry_backoff_s,
            seed=spec.seed,
        )

    def backoff_s(self, cell_index: int, attempt: int) -> float:
        """Deterministic jittered exponential backoff after ``attempt``.

        Delegates to the repository's one backoff formula
        (:func:`repro.store.retry.backoff_delay_s`) — the token encodes
        the spec seed and the cell, so the schedule is reproducible
        run-to-run and bit-identical to the pre-refactor values.
        """
        return backoff_delay_s(self.retry_backoff_s, attempt,
                               token=f"{self.seed}:{cell_index}")


@dataclass
class _Worker:
    """Parent-side handle of one supervised worker process."""

    process: Any
    task_conn: Any
    result_conn: Any
    #: Remaining cells of the chunk this worker is working through.
    chunk: Deque[int] = field(default_factory=deque)
    #: The (index, attempt) currently executing, if any.
    current: Optional[Tuple[int, int]] = None
    started_at: float = 0.0


def _ignore_interrupts() -> None:
    """Make a worker immune to ^C / SIGTERM: the *supervisor* decides
    when work stops (drain), and a half-executed cell must never leave a
    torn completion record.  Hung workers are ended with SIGKILL."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _worker_main(payload: Tuple[Any, ...],
                 before_attempt: Optional[Callable[..., None]],
                 task_conn: Any,
                 result_conn: Any) -> None:
    """Worker entry point: rebuild the engine, run cells on demand.

    Protocol: the parent sends ``("cell", index, attempt)`` messages and
    finally ``("bye",)``; the worker answers each cell with ``("done",
    index, attempt, CampaignCellResult)`` or ``("error", index, attempt,
    message)``.  Completion records are written by the worker itself
    (store writes are atomic and content-addressed, so a concurrent
    duplicate write is byte-identical), which keeps every finished cell
    resumable even if the parent dies right after.  ``before_attempt``
    runs before each cell.
    """
    from .engine import CampaignEngine
    from .spec import CampaignSpec

    _ignore_interrupts()
    (spec_dict, artifact_dir, device, golden, store_config, golden_sig,
     active) = payload
    engine = CampaignEngine(CampaignSpec.from_dict(spec_dict),
                            device=device, golden=golden, store=store_config)
    engine._golden_signature = golden_sig
    if artifact_dir is not None:
        engine._artifact_dir = Path(artifact_dir)
    if active is not None:
        engine._active_indices = frozenset(active)
    grid = engine.spec.grid()
    while True:
        message = task_conn.recv()
        if message[0] != "cell":
            break
        _, index, attempt = message
        if before_attempt is not None:
            before_attempt(engine, index, attempt)
        try:
            cell_result = engine.run_cell(grid[index])
            cell_result.attempts = attempt
            engine.record_cell_result(grid[index], cell_result)
        except Exception as error:
            result_conn.send(("error", index, attempt,
                              f"{type(error).__name__}: {error}"))
        else:
            result_conn.send(("done", index, attempt, cell_result))
    result_conn.send(("bye",))


class CampaignSupervisor:
    """Supervises a fleet of workers through one campaign's pending cells.

    Returns ``{cell_index: CampaignCellResult}`` covering *every* given
    cell — successes and explicit ``failed`` quarantine rows alike.
    ``clock`` is read for attempt starts, timeouts and retry due times;
    ``before_attempt(engine, cell_index, attempt)`` runs in the worker
    before each cell.
    """

    def __init__(self, engine: "CampaignEngine",
                 policy: Optional[SupervisorPolicy] = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 before_attempt: Optional[Callable[..., None]] = None):
        self.engine = engine
        self.policy = policy or SupervisorPolicy.from_spec(engine.spec)
        self.clock = clock
        self.before_attempt = before_attempt
        self._grid = {cell.index: cell for cell in engine.spec.grid()}
        self._mp = get_context()
        # Run state (reset per run()).
        self._results: Dict[int, "CampaignCellResult"] = {}
        self._attempts: Dict[int, int] = {}
        self._failures: Dict[int, List[str]] = {}
        self._chunk_queue: Deque[List[int]] = deque()
        self._retry_heap: List[Tuple[float, int]] = []
        self._workers: List[_Worker] = []
        self._draining = False
        self._drain_reason = ""

    # -- worker lifecycle ---------------------------------------------------------

    def _worker_payload(self) -> Tuple[Any, ...]:
        engine = self.engine
        return (
            engine.spec.to_dict(),
            str(engine._artifact_dir) if engine._artifact_dir else None,
            engine.device,
            engine._golden,
            engine.store.spawn_config() if engine.store is not None else None,
            engine._golden_signature,
            (sorted(engine._active_indices)
             if engine._active_indices is not None else None),
        )

    def _spawn_worker(self) -> _Worker:
        task_recv, task_send = self._mp.Pipe(duplex=False)
        result_recv, result_send = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_worker_main,
            args=(self._worker_payload(), self.before_attempt, task_recv,
                  result_send),
            daemon=True,
        )
        process.start()
        # The child inherited its ends across fork; close ours so fd
        # counts stay bounded across respawns.
        task_recv.close()
        result_send.close()
        worker = _Worker(process=process, task_conn=task_send,
                         result_conn=result_recv)
        self._workers.append(worker)
        return worker

    def _dismiss_worker(self, worker: _Worker, kill: bool = False) -> None:
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.kill()
            worker.process.join(timeout=5.0)
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if worker in self._workers:
            self._workers.remove(worker)

    # -- bookkeeping --------------------------------------------------------------

    def _unclaimed_work(self) -> int:
        """Queued chunks and retries beyond what idle workers can take."""
        idle = sum(1 for worker in self._workers
                   if worker.current is None and not worker.chunk)
        return max(0, len(self._chunk_queue) + len(self._retry_heap) - idle)

    def _begin_drain(self, reason: str) -> None:
        if not self._draining:
            self._draining = True
            self._drain_reason = reason
        # Queued work is abandoned (it was never started — the resume
        # path picks it up); in-flight cells are waited for.
        self._chunk_queue.clear()
        self._retry_heap.clear()
        for worker in self._workers:
            worker.chunk.clear()

    def _handle_failure(self, index: int, attempt: int,
                        message: str) -> None:
        """Route one failed attempt: retry with backoff, or quarantine."""
        self._failures.setdefault(index, []).append(
            f"attempt {attempt}: {message}")
        if attempt >= self.policy.max_retries + 1:
            from .engine import CampaignCellResult

            # Not recorded to the store: the saved result carries the
            # explicit failed row, and a resuming run retries the cell.
            self._results[index] = CampaignCellResult.failed(
                self._grid[index], error=" | ".join(self._failures[index]),
                attempts=attempt,
            )
        elif not self._draining:
            due = self.clock() + self.policy.backoff_s(index, attempt)
            heapq.heappush(self._retry_heap, (due, index))
        # While draining, a non-final failure is simply left unrecorded:
        # the cell stays pending for the resuming run.

    def _dispatch(self, worker: _Worker) -> bool:
        """Feed one cell to an idle worker. True if something was sent."""
        if self._draining or worker.current is not None:
            return False
        index: Optional[int] = None
        if worker.chunk:
            index = worker.chunk.popleft()
        elif self._retry_heap and self._retry_heap[0][0] <= self.clock():
            _, index = heapq.heappop(self._retry_heap)
        elif self._chunk_queue:
            worker.chunk = deque(self._chunk_queue.popleft())
            index = worker.chunk.popleft()
        if index is None:
            return False
        attempt = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempt
        # Timestamped before the send, so whatever the worker does for
        # this attempt is seen by the clock after the attempt started.
        worker.started_at = self.clock()
        worker.task_conn.send(("cell", index, attempt))
        worker.current = (index, attempt)
        return True

    def _drain_messages(self, worker: _Worker) -> None:
        """Process every message currently readable from one worker."""
        while True:
            try:
                if not worker.result_conn.poll():
                    return
                message = worker.result_conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "done":
                _, index, attempt, cell_result = message
                self._results[index] = cell_result
                if worker.current == (index, attempt):
                    worker.current = None
            elif kind == "error":
                _, index, attempt, error_message = message
                if worker.current == (index, attempt):
                    worker.current = None
                self._handle_failure(index, attempt, error_message)
            elif kind == "bye":
                return

    def _handle_worker_death(self, worker: _Worker) -> None:
        """A worker process exited: salvage its pipe, fail its cell."""
        self._drain_messages(worker)
        exitcode = worker.process.exitcode
        current = worker.current
        remaining = list(worker.chunk)
        self._dismiss_worker(worker)
        if current is not None:
            index, attempt = current
            self._handle_failure(
                index, attempt,
                f"worker process died (exit code {exitcode})")
        if remaining and not self._draining:
            self._chunk_queue.appendleft(remaining)

    def _check_timeouts(self) -> None:
        timeout = self.policy.cell_timeout_s
        if timeout is None:
            return
        now = self.clock()
        for worker in list(self._workers):
            if worker.current is None:
                continue
            if now - worker.started_at < timeout:
                continue
            index, attempt = worker.current
            remaining = list(worker.chunk)
            # SIGKILL: the worker ignores SIGINT/SIGTERM by design, and
            # a hung native call would not honour them anyway.
            self._dismiss_worker(worker, kill=True)
            self._handle_failure(
                index, attempt,
                f"cell attempt exceeded cell_timeout_s={timeout}")
            if remaining and not self._draining:
                self._chunk_queue.appendleft(remaining)

    # -- main loop ----------------------------------------------------------------

    def run(self, cells: List["GridCell"]
            ) -> Dict[int, "CampaignCellResult"]:
        """Run ``cells`` to completion (or graceful drain).

        Cells are chunked by acquisition key — exactly the old pool's
        chunking, for the same cache-affinity reason — queued in the
        order of their first cell, then supervised per cell.  Raises
        ``KeyboardInterrupt`` after a graceful drain; any other return
        covers every requested cell.
        """
        if not cells:
            return {}
        chunks: Dict[Tuple[int, str], List[int]] = {}
        for cell in cells:
            chunks.setdefault(cell.acquisition_key, []).append(cell.index)
        self._results = {}
        self._attempts = {}
        self._failures = {}
        self._chunk_queue = deque(chunks.values())
        self._retry_heap = []
        self._workers = []
        self._draining = False
        self._drain_reason = ""
        target = {cell.index for cell in cells}

        previous_handlers: Dict[int, Any] = {}

        def _drain_signal_handler(signum, frame):
            self._begin_drain(f"received signal {signum}")

        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(
                    signum, _drain_signal_handler)
        try:
            worker_count = min(self.policy.workers, len(chunks))
            for _ in range(max(1, worker_count)):
                self._spawn_worker()
            while True:
                for worker in self._workers:
                    self._dispatch(worker)
                if target <= set(self._results):
                    break
                if (self._draining
                        and all(worker.current is None
                                for worker in self._workers)):
                    break
                if not self._workers:
                    if self._draining or not self._unclaimed_work():
                        break
                    self._spawn_worker()
                    continue
                waitables = [worker.result_conn for worker in self._workers]
                waitables += [worker.process.sentinel
                              for worker in self._workers]
                connection_wait(waitables, timeout=POLL_INTERVAL_S)
                for worker in list(self._workers):
                    self._drain_messages(worker)
                for worker in list(self._workers):
                    if not worker.process.is_alive():
                        self._handle_worker_death(worker)
                self._check_timeouts()
                # Workers died with work left: fork a replacement only
                # while a queued chunk or retry has no idle worker to
                # take it (a busy worker's own chunk needs no second).
                if (not self._draining
                        and len(self._workers) < self.policy.workers
                        and self._unclaimed_work()):
                    self._spawn_worker()
        finally:
            for worker in list(self._workers):
                if worker.process.is_alive() and worker.current is None:
                    try:
                        worker.task_conn.send(("bye",))
                    except (OSError, BrokenPipeError):
                        pass
                    self._dismiss_worker(worker)
                else:
                    self._dismiss_worker(worker, kill=True)
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
        if self._draining and not target <= set(self._results):
            raise KeyboardInterrupt(
                f"campaign drained after {self._drain_reason}: "
                f"{len(self._results)}/{len(target)} in-flight cells "
                f"completed and recorded; the store is resumable"
            )
        return self._results


def run_cells_serial(engine: "CampaignEngine", cells: List["GridCell"],
                     policy: Optional[SupervisorPolicy] = None
                     ) -> Dict[int, "CampaignCellResult"]:
    """The supervisor's retry/quarantine semantics, in-process.

    Single-worker runs share the exact failure contract of supervised
    ones — bounded retries with backoff, then an explicit ``failed`` row
    — minus what needs a separate process (crash containment, timeout
    kills).  ``KeyboardInterrupt`` propagates: every previously finished
    cell is already recorded, so the run is resumable.
    """
    from .engine import CampaignCellResult

    policy = policy or SupervisorPolicy.from_spec(engine.spec)
    results: Dict[int, CampaignCellResult] = {}
    for cell in cells:
        failures: List[str] = []
        for attempt in range(1, policy.max_retries + 2):
            try:
                cell_result = engine.run_cell(cell)
            except Exception as error:
                failures.append(
                    f"attempt {attempt}: {type(error).__name__}: {error}")
                if attempt <= policy.max_retries:
                    backoff = policy.backoff_s(cell.index, attempt)
                    if backoff > 0:
                        time.sleep(backoff)
                continue
            cell_result.attempts = attempt
            engine.record_cell_result(cell, cell_result)
            results[cell.index] = cell_result
            break
        else:
            results[cell.index] = CampaignCellResult.failed(
                cell, error=" | ".join(failures),
                attempts=policy.max_retries + 1,
            )
    return results
