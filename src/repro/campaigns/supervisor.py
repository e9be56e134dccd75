"""Fault-tolerant supervised execution of campaign grid cells.

One attempt of a cell is one :func:`_attempt` (one ``engine.run_cell``
call, stamped with its attempt number and recorded in the store), and
one retry ledger (:class:`_Failures`) decides what a failed attempt
means, for the in-process loop (:func:`run_cells_serial`) and the
supervised fleet alike.  The spec is the run's policy.

:class:`CampaignSupervisor` owns a small fleet of directly managed
``multiprocessing.Process`` workers, instead of a process pool whose
first crashed worker discards every other chunk's in-flight work, and
feeds them **one cell at a time** over per-worker pipes.  Each worker is
a ``fork`` of the parent: it runs its cells on the run's own engine (its
store and trace-archive owners included) and rebuilds nothing.  On top
of that fleet the supervisor gives:

* **chunk affinity, per-cell dispatch** — cells are still grouped by
  acquisition key (so a worker's caches are reused across the metrics of
  one (die count, variant) point), but each worker receives its chunk
  cell by cell.  A crash or timeout therefore identifies the offending
  cell *exactly* — the degenerate, precise limit of bisecting a failed
  chunk — and only costs that one attempt; the chunk's remaining cells
  go back on the queue untouched.
* **bounded retries with backoff** — a failed attempt (worker death,
  raised exception, or per-cell timeout) is retried up to
  ``spec.max_retries`` times with exponential backoff (base
  :data:`RETRY_BACKOFF_S`) plus deterministic jitter before the cell is
  quarantined.
* **poison-cell quarantine** — a cell that fails every attempt becomes
  an explicit ``failed`` :class:`~repro.campaigns.engine.CampaignCellResult`
  row (carried through save/merge/CSV, never recorded to the store)
  instead of aborting the campaign: the grid completes degraded, and a
  rerun with the same store retries only the failed cells.
* **per-cell timeout** — ``spec.cell_timeout_s`` bounds one attempt; a
  hung worker is SIGKILLed (workers ignore SIGINT/SIGTERM, so only an
  unignorable signal reliably ends a deadlocked kernel call) and lost
  like a worker that died: its attempt enters the retry path and the
  rest of its chunk goes back on the queue.
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
import itertools
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple, Union)

from ..store.retry import backoff_delay_s

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import CampaignCellResult, CampaignEngine
    from .spec import CampaignSpec, GridCell

#: Main-loop wake-up period; bounds timeout detection latency.
POLL_INTERVAL_S = 0.05

#: Base of the exponential retry backoff: the wait after failed attempt
#: ``n`` is about ``RETRY_BACKOFF_S * 2**(n-1)`` seconds.
RETRY_BACKOFF_S = 0.5


def retry_delay_s(seed: int, cell_index: int, attempt: int) -> float:
    """The wait before retrying ``cell_index`` after failed ``attempt``:
    the one backoff formula (:func:`repro.store.retry.backoff_delay_s`),
    jittered by the spec seed and the cell, so it repeats run to run."""
    return backoff_delay_s(RETRY_BACKOFF_S, attempt,
                           token=f"{seed}:{cell_index}")


class _Failures:
    """The retry ledger of one run: the failed attempts of each cell."""

    def __init__(self, spec: "CampaignSpec"):
        self.spec = spec
        self._log: Dict[int, List[str]] = {}

    def record(self, cell: "GridCell", attempt: int,
               message: str) -> Optional["CampaignCellResult"]:
        """Log one failed attempt.  ``None`` while the cell has retries
        left (retry it after :func:`retry_delay_s`); after its
        ``spec.max_retries + 1``-th attempt, its quarantine row — never
        recorded to the store, so a resuming run retries the cell."""
        log = self._log.setdefault(cell.index, [])
        log.append(f"attempt {attempt}: {message}")
        if attempt <= self.spec.max_retries:
            return None
        from .engine import CampaignCellResult

        return CampaignCellResult.failed(cell, error=" | ".join(log),
                                         attempts=attempt)


def _attempt(engine: "CampaignEngine", cell: "GridCell",
             attempt: int) -> Union["CampaignCellResult", str]:
    """Run one attempt of ``cell``: one ``engine.run_cell`` call, stamped
    with ``attempt`` and recorded in the store.  The result, or the
    error message of whatever the attempt raised."""
    try:
        result = engine.run_cell(cell)
        result.attempts = attempt
        engine.record_cell_result(cell, result)
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    return result


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


def _worker_main(engine: "CampaignEngine",
                 before_attempt: Optional[Callable[..., None]],
                 task_conn: Any,
                 result_conn: Any) -> None:
    """Worker entry point: run cells on demand on the forked engine.

    ``engine`` is the parent's own, inherited across ``fork`` with what
    its ``run`` set up (store, artifact directory, trace-archive
    owners).  Protocol: the parent sends ``("cell", index, attempt)``
    messages and finally ``("bye",)``; the worker answers each cell with
    ``("result", index, attempt, outcome)``, ``outcome`` being what
    :func:`_attempt` returns.  Completion records are written by the
    worker itself (store writes are atomic and content-addressed, so a
    concurrent duplicate write is byte-identical), which keeps every
    finished cell resumable even if the parent dies right after.
    ``before_attempt`` runs before each cell.
    """
    _ignore_interrupts()
    grid = engine.spec.grid()
    while True:
        message = task_conn.recv()
        if message[0] != "cell":
            break
        _, index, attempt = message
        if before_attempt is not None:
            before_attempt(engine, index, attempt)
        result_conn.send(("result", index, attempt,
                          _attempt(engine, grid[index], attempt)))
    result_conn.send(("bye",))


class CampaignSupervisor:
    """Supervises a fleet of workers through one campaign's pending cells.

    Returns ``{cell_index: CampaignCellResult}`` covering *every* given
    cell — successes and explicit ``failed`` quarantine rows alike.
    ``clock`` is read for attempt starts, timeouts and retry due times;
    ``before_attempt(engine, cell_index, attempt)`` runs in the worker
    before each cell.  One supervisor runs once.
    """

    def __init__(self, engine: "CampaignEngine", *,
                 clock: Callable[[], float] = time.monotonic,
                 before_attempt: Optional[Callable[..., None]] = None):
        self.engine = engine
        #: The spec is the run's policy (workers, retries, timeout).
        self.policy = engine.spec
        self.clock = clock
        self.before_attempt = before_attempt
        self._grid = {cell.index: cell for cell in engine.spec.grid()}
        # Workers are forks of the parent: they inherit the engine.
        self._mp = get_context("fork")
        self._results: Dict[int, "CampaignCellResult"] = {}
        self._attempts: Dict[int, int] = {}
        self._failures = _Failures(engine.spec)
        self._chunk_queue: Deque[List[int]] = deque()
        self._retry_heap: List[Tuple[float, int]] = []
        self._workers: List[_Worker] = []
        self._draining = False
        self._drain_reason = ""

    # -- worker lifecycle ---------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        task_recv, task_send = self._mp.Pipe(duplex=False)
        result_recv, result_send = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_worker_main,
            args=(self.engine, self.before_attempt, task_recv, result_send),
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
        failed = self._failures.record(self._grid[index], attempt, message)
        if failed is not None:
            self._results[index] = failed
        elif not self._draining:
            due = self.clock() + retry_delay_s(self.policy.seed, index,
                                               attempt)
            heapq.heappush(self._retry_heap, (due, index))
        # While draining, a non-final failure is simply left unrecorded:
        # the cell stays pending for the resuming run.

    def _dispatch(self, worker: _Worker) -> None:
        """Feed one cell to an idle worker, if one is due."""
        if self._draining or worker.current is not None:
            return
        index: Optional[int] = None
        if worker.chunk:
            index = worker.chunk.popleft()
        elif self._retry_heap and self._retry_heap[0][0] <= self.clock():
            _, index = heapq.heappop(self._retry_heap)
        elif self._chunk_queue:
            worker.chunk = deque(self._chunk_queue.popleft())
            index = worker.chunk.popleft()
        if index is None:
            return
        attempt = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempt
        # Timestamped before the send, so whatever the worker does for
        # this attempt is seen by the clock after the attempt started.
        worker.started_at = self.clock()
        worker.task_conn.send(("cell", index, attempt))
        worker.current = (index, attempt)

    def _drain_messages(self, worker: _Worker) -> None:
        """Process every message currently readable from one worker."""
        while True:
            try:
                if not worker.result_conn.poll():
                    return
                message = worker.result_conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "bye":
                return
            _, index, attempt, outcome = message
            if worker.current == (index, attempt):
                worker.current = None
            if isinstance(outcome, str):
                self._handle_failure(index, attempt, outcome)
            else:
                self._results[index] = outcome

    def _lose_worker(self, worker: _Worker, message: str,
                     kill: bool = False) -> None:
        """A worker is gone — it died, or is killed (``kill``) for a
        timeout: its attempt in flight fails with ``message`` and the
        rest of its chunk goes back on the queue."""
        current = worker.current
        remaining = list(worker.chunk)
        self._dismiss_worker(worker, kill=kill)
        if current is not None:
            self._handle_failure(*current, message)
        if remaining and not self._draining:
            self._chunk_queue.appendleft(remaining)

    def _check_workers(self) -> None:
        """Lose every worker that exited (after salvaging its pipe) and,
        with a ``cell_timeout_s``, every worker whose attempt ran out of
        time."""
        for worker in list(self._workers):
            if not worker.process.is_alive():
                self._drain_messages(worker)
                self._lose_worker(worker, f"worker process died (exit code "
                                          f"{worker.process.exitcode})")
        timeout = self.policy.cell_timeout_s
        if timeout is None:
            return
        now = self.clock()
        for worker in list(self._workers):
            if worker.current is not None \
                    and now - worker.started_at >= timeout:
                # SIGKILL: the worker ignores SIGINT/SIGTERM by design,
                # and a hung native call would not honour them anyway.
                self._lose_worker(
                    worker, f"cell attempt exceeded cell_timeout_s={timeout}",
                    kill=True)

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
        self._chunk_queue.extend(chunks.values())
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
                self._check_workers()
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


def run_cells_serial(engine: "CampaignEngine", cells: List["GridCell"]
                     ) -> Dict[int, "CampaignCellResult"]:
    """The supervisor's retry/quarantine semantics, in-process.

    Single-worker runs share the exact failure contract of supervised
    ones — the same :func:`_attempt`, the same ledger, bounded retries
    with backoff, then an explicit ``failed`` row — minus what needs a
    separate process (crash containment, timeout kills).
    ``KeyboardInterrupt`` propagates: every previously finished cell is
    already recorded, so the run is resumable.
    """
    failures = _Failures(engine.spec)
    results: Dict[int, "CampaignCellResult"] = {}
    for cell in cells:
        for attempt in itertools.count(1):
            outcome = _attempt(engine, cell, attempt)
            if not isinstance(outcome, str):
                break
            outcome = failures.record(cell, attempt, outcome)
            if outcome is not None:
                break
            time.sleep(retry_delay_s(engine.spec.seed, cell.index, attempt))
        results[cell.index] = outcome
    return results
