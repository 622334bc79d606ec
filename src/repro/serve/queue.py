"""The daemon's job engine: bounded queue, workers, deadlines, drain.

Jobs move through a small, explicit state machine::

    queued -> running -> done
                      -> failed        (runner raised)
                      -> cancelled     (client asked, or pre-run cancel)
                      -> expired       (per-job deadline fired)
           -> cancelled                (cancelled before a worker took it)
    queued/running -> interrupted      (daemon drained mid-flight)

Terminal states are ``done | failed | cancelled | expired``;
``interrupted`` is deliberately non-terminal — it is the state the
drain journal persists so a restarted daemon resumes the job.

Design points:

- **bounded admission** — :meth:`JobQueue.submit` refuses past
  ``max_queued`` with a :class:`QueueFull` carrying a ``retry_after_s``
  hint, which the HTTP layer maps onto ``429 Retry-After``.  Shedding
  at admission keeps every accepted job's latency predictable,
- **cooperative deadlines** — each running job gets a
  ``threading.Timer``; on expiry it sets the job's ``cancel_event``,
  which :func:`~repro.core.sweep.run_sweep` observes *between batches*
  and unwinds after flushing landed work to the cache.  A deadline
  never kills mid-batch, so an expired job's partial work is already
  cache-warm for the next attempt,
- **graceful drain** — :meth:`begin_drain` stops admission;
  :meth:`drain` waits a grace window, then cancels what is still
  running and marks everything unfinished ``interrupted`` in the
  journal.  The journal write happens *before* the cancel, so even a
  SIGKILL inside the drain window (the ``kill-during-drain`` chaos
  fault) leaves a resumable record.

All timing flows through an injected ``clock`` plus ``threading``
primitives; this module never reads the host clock directly (SIM001
discipline — the one waived read lives in :mod:`repro.serve.limits`).
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable

from repro.errors import ServeError
from repro.serve.journal import TERMINAL_STATES, JobJournal
from repro.serve.limits import wall_clock

__all__ = ["Job", "JobQueue", "QueueFull"]


class QueueFull(ServeError):
    """Admission refused: the bounded job queue is at capacity."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class Job:
    """One unit of served work (mutable by design; serve/ is outside the
    SIM004 frozen-dataclass scope precisely because operational state
    like this must mutate)."""

    def __init__(
        self,
        job_id: str,
        params: dict,
        kind: str = "sweep",
        client: str = "",
        coalesce_key: str = "",
        deadline_s: float | None = None,
    ):
        self.id = job_id
        self.kind = kind
        self.params = params
        self.client = client
        self.coalesce_key = coalesce_key
        self.deadline_s = deadline_s
        self.state = "queued"
        self.error = ""
        self.detail = ""
        #: Set to request cooperative cancellation; run_sweep observes it.
        self.cancel_event = threading.Event()
        #: Set exactly once, on reaching any terminal-or-interrupted
        #: state; responders wait on this.
        self.done_event = threading.Event()
        self._done_callbacks: list[Callable[[Job], None]] = []
        self._done_lock = threading.Lock()
        #: True once the deadline timer fired (distinguishes ``expired``
        #: from a client ``cancelled`` — both ride the cancel_event).
        self.deadline_hit = False
        #: Filled by the runner on success.
        self.result = None
        self.summary: dict | None = None
        #: Degradation markers (see docs/SERVING.md).
        self.backend_requested = ""
        self.backend_used = ""
        self.degraded = False
        #: Progress events, append-only, seq-numbered from 0.
        self.events: list[dict] = []
        self._events_lock = threading.Lock()

    def add_event(self, payload: dict) -> None:
        """Append one progress event (seq assigned here)."""
        with self._events_lock:
            self.events.append({"seq": len(self.events), **payload})

    def events_since(self, seq: int) -> list[dict]:
        """Events with sequence number >= ``seq`` (streaming tail)."""
        with self._events_lock:
            return self.events[seq:]

    def add_done_callback(self, fn: Callable[[Job], None]) -> None:
        """Run ``fn(job)`` once, when the job settles — at once if it
        already has.

        Registration and settling swap state under one lock, so a hook
        registered while the job settles is never lost: either it is
        queued before the swap and fired by the settling thread, or it
        sees ``done_event`` set and fires here.  Hooks run outside the
        lock and must not raise.
        """
        with self._done_lock:
            if not self.done_event.is_set():
                self._done_callbacks.append(fn)
                return
        fn(self)

    def _mark_done(self) -> None:
        """Set ``done_event`` and fire the hooks registered so far."""
        with self._done_lock:
            self.done_event.set()
            callbacks, self._done_callbacks = self._done_callbacks, []
        for fn in callbacks:
            fn(self)

    @property
    def settled(self) -> bool:
        """Whether the job has stopped moving (terminal or interrupted)."""
        return self.state in TERMINAL_STATES or self.state == "interrupted"

    def view(self) -> dict:
        """Plain-dict snapshot for :func:`repro.serve.render.job_payload`."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "coalesce_key": self.coalesce_key,
            "backend_requested": self.backend_requested,
            "backend_used": self.backend_used,
            "degraded": self.degraded,
            "n_events": len(self.events),
            "error": self.error,
            "detail": self.detail,
            "summary": self.summary,
        }


class JobQueue:
    """Bounded queue + worker threads (see module docstring)."""

    def __init__(
        self,
        runner: Callable[[Job], None],
        max_queued: int = 16,
        workers: int = 2,
        journal: JobJournal | None = None,
        clock: Callable[[], float] = wall_clock,
        on_settled: Callable[[Job], None] | None = None,
        retry_after_s: float = 1.0,
    ):
        if max_queued < 1:
            raise ServeError(f"max_queued must be >= 1, got {max_queued}")
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.runner = runner
        self.max_queued = max_queued
        self.n_workers = workers
        self.journal = journal
        self.clock = clock
        self.on_settled = on_settled
        self.retry_after_s = retry_after_s
        self.jobs: dict[str, Job] = {}
        self._pending: deque[Job] = deque()
        self._running: dict[str, Job] = {}
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._draining = False
        #: Admission counters (health endpoint).
        self.n_submitted = 0
        self.n_rejected_full = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for n in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{n}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop workers after their current job; does not cancel."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(5.0)
        self._threads = []

    # -- admission -------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once drain began — the queue admits nothing further."""
        return self._draining

    def depth(self) -> tuple[int, int]:
        """(queued, running) depths right now."""
        with self._cond:
            return len(self._pending), len(self._running)

    def submit(self, job: Job) -> None:
        """Admit one job, or raise :class:`QueueFull` / :class:`ServeError`.

        The journal's submit op lands *before* the job becomes
        runnable, so an admitted job can never be lost to a kill.
        """
        with self._cond:
            if self._stopping or self._draining:
                raise ServeError("daemon is draining; not admitting jobs")
            if len(self._pending) >= self.max_queued:
                self.n_rejected_full += 1
                raise QueueFull(
                    f"job queue is at capacity ({self.max_queued})",
                    retry_after_s=self.retry_after_s,
                )
            if job.id in self.jobs:
                raise ServeError(f"duplicate job id {job.id!r}")
            if self.journal is not None:
                self.journal.submit(
                    job.id, job.params, job.coalesce_key, job.client
                )
            self.jobs[job.id] = job
            self._pending.append(job)
            self.n_submitted += 1
            self._cond.notify()

    def get(self, job_id: str) -> Job | None:
        """The job with this id, if the daemon knows it."""
        with self._cond:
            return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Request cooperative cancellation; False for unknown/settled."""
        with self._cond:
            job = self.jobs.get(job_id)
            if job is None or job.settled:
                return False
            job.cancel_event.set()
            self._cond.notify_all()
            return True

    # -- worker side -----------------------------------------------------
    def _settle(self, job: Job, state: str, error: str = "",
                detail: str = "") -> None:
        """One-way transition into a settled state (+ journal + hook)."""
        with self._cond:
            if job.settled:
                return
            job.state = state
            job.error = error
            job.detail = detail
        if self.journal is not None:
            self.journal.state(job.id, state, detail or error)
        job._mark_done()
        if self.on_settled is not None:
            self.on_settled(job)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopping:
                    self._cond.wait(0.1)
                if self._stopping and not self._pending:
                    return
                if not self._pending:
                    continue
                job = self._pending.popleft()
                if job.cancel_event.is_set():
                    # Cancelled (or drained) before any work started.
                    state = ("interrupted" if self._draining
                             else "cancelled")
                else:
                    job.state = "running"
                    self._running[job.id] = job
                    state = None
            if state is not None:
                self._settle(job, state)
                continue
            if self.journal is not None:
                self.journal.state(job.id, "running")
            self._run_one(job)
            with self._cond:
                self._running.pop(job.id, None)
                self._cond.notify_all()

    def _expire(self, job: Job) -> None:
        """Deadline-timer callback: flag and cancel cooperatively."""
        job.deadline_hit = True
        job.cancel_event.set()

    def _run_one(self, job: Job) -> None:
        from repro.errors import SweepCancelledError

        timer = None
        if job.deadline_s is not None:
            timer = threading.Timer(job.deadline_s, self._expire, (job,))
            timer.daemon = True
            timer.start()
        try:
            self.runner(job)
        except SweepCancelledError as exc:
            if job.deadline_hit:
                self._settle(job, "expired", detail=str(exc))
            elif self._draining or self._stopping:
                self._settle(job, "interrupted", detail=str(exc))
            else:
                self._settle(job, "cancelled", detail=str(exc))
        except Exception as exc:
            self._settle(job, "failed",
                         error=f"{type(exc).__name__}: {exc}")
        else:
            self._settle(job, "done")
        finally:
            if timer is not None:
                timer.cancel()

    # -- drain -----------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting; running and queued jobs are untouched yet."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def drain(self, grace_s: float = 5.0) -> list[str]:
        """Drain to a stop; returns the ids left non-terminal.

        Waits up to ``grace_s`` for in-flight work to finish on its
        own.  Whatever remains is journaled ``interrupted`` *first* and
        cancelled *second* — so a SIGKILL between the two still leaves
        the journal resumable — then the workers are stopped.
        """
        self.begin_drain()
        deadline = self.clock() + max(grace_s, 0.0)
        with self._cond:
            while (self._pending or self._running) \
                    and self.clock() < deadline:
                self._cond.wait(0.05)
            leftovers = list(self._pending) + list(self._running.values())
        for job in leftovers:
            if self.journal is not None and not job.settled:
                self.journal.state(job.id, "interrupted", "daemon drain")
        for job in leftovers:
            job.cancel_event.set()
        # stop() joins the workers; on their way out they pop every
        # still-pending job, observe its set cancel_event under the
        # drain flag, and settle it as ``interrupted`` — so by the time
        # stop() returns, nothing is left un-settled.
        self.stop()
        stranded = []
        with self._cond:
            stranded = [job for job in self._pending if not job.settled]
            self._pending.clear()
        for job in stranded:  # safety net; normally empty
            self._settle(job, "interrupted", detail="daemon drain")
        with self._cond:
            return sorted(
                job_id for job_id, job in self.jobs.items()
                if job.state == "interrupted"
            )

    def describe(self) -> dict:
        """JSON-ready queue snapshot (health endpoint)."""
        with self._cond:
            return {
                "queued": len(self._pending),
                "running": len(self._running),
                "max_queued": self.max_queued,
                "workers": self.n_workers,
                "submitted": self.n_submitted,
                "rejected_full": self.n_rejected_full,
                "draining": self._draining,
            }
