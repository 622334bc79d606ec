"""The supervision core: one state machine, one process fleet, the pool.

This replaces the bare ``multiprocessing.Pool.imap`` dispatch the sweep
engine used to rely on.  A pool stream has three failure modes that each
kill an entire 240k-sample campaign: a worker exception aborts the whole
``imap`` iterator, a crashed worker loses its in-flight chunk forever,
and a hung worker stalls the stream with no diagnosis.  Every backend
instead tracks each batch as its own assignment, through the one loop
in :class:`ExecutorBackend`:

- failed attempts back off per the deterministic
  :class:`~repro.resilience.policy.RetryPolicy` and jump the queue once
  due; past the budget a task is quarantined as *poison* and the stream
  degrades gracefully (yields None) or fails fast
  (:class:`~repro.errors.PoisonBatchError`), per ``fail_fast``,
- every result passes ``validate`` or is booked as ``corrupt-result``,
- results stream back **in task order** regardless of completion order,
  so the consumer's records and progress callbacks are bit-identical to
  serial execution,
- completed-but-unconsumed results stay available through
  :meth:`ExecutorBackend.completed_unyielded`, so an interrupted sweep
  can flush landed work to its cache before re-raising.

Both multiprocess backends run on :class:`_Fleet`: one OS process per
slot, each owning one end of a ``socket.socketpair()`` and speaking the
length-prefixed, checksummed frames of :mod:`repro.resilience.transport`
behind one selector.  Each task runs under a wall-clock **deadline**; a
process that blows it is killed and respawned.  A process that dies
shows up as EOF on its link, and one killed mid-result leaves a
:class:`~repro.errors.TruncatedFrameError` that is booked and retried
within ``frame_timeout_s`` — never a reader blocked on half a message.
Every death is classified the same way on every backend (a chaos exit
code names its fault kind; any other death is a ``crash``).

:class:`Supervisor` is the *pool* backend on that fleet: one FIFO of
tasks in submission order, retries first, and a respawn budget whose
exhaustion raises :class:`~repro.errors.ResilienceError`.  Sweep
workers send packed :class:`~repro.frame.columns.RecordBlock` batches,
whose ``array.array`` columns pickle as raw bytes straight into the
frames (see ``docs/COLUMNAR.md``).
"""

from __future__ import annotations

import abc
import heapq
import multiprocessing
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import (
    MalformedFrameError,
    PoisonBatchError,
    ResilienceError,
    SweepCancelledError,
    TransportError,
    TruncatedFrameError,
)
from repro.resilience.chaos import (
    CHAOS_EXIT_KINDS,
    installed_node_fault,
    trigger_node_fault,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import FailureLedger
from repro.resilience.transport import recv_frame, send_frame

__all__ = ["ExecutorBackend", "SupervisedTask", "Supervisor"]


@dataclass(frozen=True)
class SupervisedTask:
    """One unit of supervised work.

    ``task_id`` is the submission position (results stream in this
    order); ``index`` is the caller-facing identity used for retry
    jitter, chaos lookup and the failure report; ``identity`` is the
    duck-typed batch the report describes (a ``BatchSpec``).
    """

    task_id: int
    index: int
    payload: object
    timeout_s: float
    identity: object = None


class ExecutorBackend(abc.ABC):
    """The dispatch protocol shared by serial, pool and nodes backends,
    and the supervision loop every one of them runs.

    ``stream(tasks, ledger)`` yields one outcome per task in task_id
    order — the result, or None for a quarantined task — and books every
    failed attempt in the shared
    :class:`~repro.resilience.report.FailureLedger`.  A subclass says
    how one tick makes progress (:meth:`_step`); this class owns the
    ledger, the seeded retry heap, validation, the cancel check and the
    ordered yield.
    """

    #: Short identifier ("serial", "pool", "nodes").
    name = "backend"
    #: Optional cooperative-cancellation handle (anything with
    #: ``is_set()``, typically a ``threading.Event``).  When set, the
    #: backend raises :class:`~repro.errors.SweepCancelledError` at the
    #: next tick — between attempts, never mid-batch — so the sweep
    #: layer can flush landed batches before unwinding.  This is how a
    #: served request's deadline reaches all the way down to the fleet.
    cancel_event = None
    #: Longest a tick blocks while waiting on a retry or a result.
    poll_interval_s = 0.05

    def __init__(
        self,
        fn: Callable,
        policy: RetryPolicy | None = None,
        validate: Callable | None = None,
        fail_fast: bool = False,
    ):
        self.fn = fn
        self.policy = policy or RetryPolicy()
        self.validate = validate
        self.fail_fast = fail_fast
        self.ledger: FailureLedger | None = None
        #: Worker/node respawns performed so far (failure-report field).
        self.worker_respawns = 0
        self._pending: deque = deque()
        self._retry_heap: list = []
        self._retry_seq = 0
        self._outcomes: dict[int, tuple[str, object]] = {}
        self._yielded = 0

    @abc.abstractmethod
    def stream(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None = None,
    ) -> Iterator[object]:
        """Run all tasks; yield outcomes in ``task_id`` order."""

    @abc.abstractmethod
    def _step(self) -> None:
        """Make progress: run or dispatch work, collect what landed."""

    def _start(self, tasks: list[SupervisedTask]) -> None:
        """Queue the tasks (and bring up any workers) for one stream."""
        self._pending = deque((task, 0) for task in tasks)

    def _requeue(self, task: SupervisedTask, attempt: int) -> None:
        """Put a retried or undelivered task at the head of the queue."""
        self._pending.appendleft((task, attempt))

    def _supervise(
        self, tasks: Sequence[SupervisedTask], ledger: FailureLedger | None
    ) -> Iterator[object]:
        tasks = list(tasks)
        if [t.task_id for t in tasks] != list(range(len(tasks))):
            raise ResilienceError(
                "task_ids must be the contiguous sequence 0..n-1 in "
                "submission order"
            )
        self.ledger = ledger if ledger is not None else FailureLedger(
            self.policy, "raise" if self.fail_fast else "degrade"
        )
        self._retry_heap = []
        self._outcomes = {}
        self._yielded = 0
        self.worker_respawns = 0
        try:
            self._start(tasks)
            while self._yielded < len(tasks):
                if (self.cancel_event is not None
                        and self.cancel_event.is_set()):
                    raise SweepCancelledError(
                        f"sweep cancelled while streaming on the "
                        f"{self.name} backend"
                    )
                now = time.monotonic()
                while self._retry_heap and self._retry_heap[0][0] <= now:
                    _, _, task, attempt = heapq.heappop(self._retry_heap)
                    # Retries jump the queue: a flaky batch should
                    # resolve (or quarantine) promptly rather than
                    # languish behind the tail.
                    self._requeue(task, attempt)
                self._step()
                while self._yielded in self._outcomes:
                    status, value = self._outcomes.pop(self._yielded)
                    self._yielded += 1
                    yield value if status == "ok" else None
        finally:
            self.close()

    def _wait_budget(self, deadlines=()) -> float:
        """How long one tick may block: until the next due retry or
        in-flight deadline, at most ``poll_interval_s``."""
        now = time.monotonic()
        budget = self.poll_interval_s
        if self._retry_heap:
            budget = min(budget, self._retry_heap[0][0] - now)
        for deadline in deadlines:
            budget = min(budget, deadline - now)
        return max(budget, 0.005)

    def _land(self, task: SupervisedTask, attempt: int,
              value: object) -> None:
        """Accept a returned value, or book it as ``corrupt-result``."""
        error = self.validate(value) if self.validate else None
        if error is None:
            self.ledger.record_success(task.index)
            self._outcomes[task.task_id] = ("ok", value)
        else:
            self._record_failure(task, attempt, "corrupt-result", error)

    def _record_failure(self, task: SupervisedTask, attempt: int,
                        kind: str, cause: str) -> None:
        """Book a failed attempt: schedule its seeded retry, or
        quarantine the task (raising under ``fail_fast``)."""
        retry = self.ledger.record_failure(
            task.index, task.identity, attempt, kind, cause
        )
        if retry:
            delay = self.policy.delay_s(task.index, attempt + 1)
            self._retry_seq += 1
            heapq.heappush(
                self._retry_heap,
                (time.monotonic() + delay, self._retry_seq, task,
                 attempt + 1),
            )
            return
        self._outcomes[task.task_id] = ("poison", None)
        if self.fail_fast:
            raise PoisonBatchError(
                f"batch {task.index} quarantined after {attempt + 1} "
                f"failed attempt(s) (last: {kind}: {cause}) under "
                "fail_policy='raise'"
            )

    def completed_unyielded(self) -> list[tuple[int, object]]:
        """Results that landed but were not yet consumed from the stream.

        On an interrupted sweep the caller flushes these to the batch
        cache so completed work is never lost.
        """
        return [
            (task_id, value)
            for task_id, (status, value) in sorted(self._outcomes.items())
            if status == "ok"
        ]

    def close(self) -> None:
        """Release all execution resources; idempotent."""


# ----------------------------------------------------------------------
# The process fleet
# ----------------------------------------------------------------------
def _detach_inherited_signals() -> None:
    """Restore default signal handling in a forked child process.

    A parent embedding this fleet in an asyncio loop (the serving
    daemon) registers SIGTERM/SIGINT handlers backed by a wakeup-fd
    self-pipe.  A forked worker inherits both the handler and the pipe,
    so a ``terminate()`` aimed at the worker would write into the pipe
    *shared with the parent's loop* — the parent then observes a
    phantom SIGTERM and begins draining itself.  Detaching the wakeup
    fd and restoring ``SIG_DFL`` makes child kills land on the child
    alone (and lets plain ``terminate()`` actually kill it).
    """
    import signal

    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass  # not the main thread of the child, or already detached
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _fleet_main(fn, initializer, initargs, sock):
    """Fleet process body: initialize once, then serve framed tasks.

    Node-level chaos faults fire *here, at the transport layer* (see
    :func:`~repro.resilience.chaos.trigger_node_fault`), so the parent
    exercises the real truncated-frame and boundary-EOF recovery paths
    rather than a polite error message.
    """
    _detach_inherited_signals()
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as exc:
        # A process that cannot initialize must say so rather than make
        # every assignment look like a crash.
        try:
            send_frame(sock, ("init-error", f"{type(exc).__name__}: {exc}"))
        except TransportError:
            pass
        return
    try:
        while True:
            try:
                message = recv_frame(sock)
            except TransportError:
                return  # parent went away; nothing left to serve
            if message is None or message[0] == "stop":
                return
            if message[0] != "task":
                continue  # unknown kind: skip rather than misinterpret
            _tag, task_id, index, payload, attempt = message
            fault = installed_node_fault(index, attempt)
            if fault is not None:
                trigger_node_fault(fault, sock, task_id)  # never returns
            try:
                result = fn(payload, attempt)
            except Exception as exc:
                send_frame(sock, ("result", task_id, "error",
                                  f"{type(exc).__name__}: {exc}"))
            else:
                send_frame(sock, ("result", task_id, "ok", result))
    except KeyboardInterrupt:
        # Ctrl-C reaches the whole process group; exit quietly and let
        # the parent's own interrupt handling clean up.
        return


def _death_kind(exitcode: int | None, exc: TransportError) -> str:
    """The failure kind of a broken link, the same on every backend.

    A chaos exit code names its own fault; any other exit is a
    ``crash``.  A process still alive behind a broken link died to the
    transport: mid-frame (``node-lost``) or at a boundary
    (``shard-partition``).
    """
    if exitcode in CHAOS_EXIT_KINDS:
        return CHAOS_EXIT_KINDS[exitcode]
    if exitcode is not None:
        return "crash"
    if isinstance(exc, (TruncatedFrameError, MalformedFrameError)):
        return "node-lost"
    return "shard-partition"


#: Held from ``socketpair()`` until the parent closes the child's end,
#: so a fleet forking on another thread never inherits that end (which
#: would keep the link open past the child's death).
_SPAWN_LOCK = threading.Lock()


@dataclass
class _FleetSlot:
    """One fleet process, its link, and what it is currently running."""

    slot_id: int
    sock: socket.socket | None = None
    process: multiprocessing.Process | None = None
    #: (task, attempt, deadline) while busy, None while idle.
    current: tuple | None = None
    #: False while down, and for good once the slot is abandoned.
    alive: bool = False


class _Fleet(ExecutorBackend):
    """Supervised processes over frame links: everything the pool and
    nodes backends share.  Subclasses choose which queued task an idle
    slot takes (:meth:`_take_for`) and what happens once the respawn
    budget is spent (:meth:`_retire`)."""

    #: What the fleet calls one of its processes, in messages.
    noun = "worker"
    #: Longest a read may wait for the rest of a frame once its first
    #: byte has arrived; a process killed mid-result is booked by then.
    frame_timeout_s = 5.0

    def __init__(
        self,
        fn: Callable,
        initializer: Callable | None,
        initargs: Sequence,
        policy: RetryPolicy | None,
        validate: Callable | None,
        fail_fast: bool,
        max_respawns: int,
    ):
        super().__init__(fn, policy, validate, fail_fast)
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.max_respawns = max_respawns
        self._slots: list[_FleetSlot] = []
        self._selector: selectors.BaseSelector | None = None
        self._closed = True

    @abc.abstractmethod
    def _take_for(self, slot: _FleetSlot) -> tuple | None:
        """The ``(task, attempt)`` an idle slot runs next, if any."""

    @abc.abstractmethod
    def _retire(self, slot: _FleetSlot) -> None:
        """Handle a dead slot once the respawn budget is spent."""

    # -- process lifecycle -----------------------------------------------
    def _open(self, n_slots: int) -> None:
        self._selector = selectors.DefaultSelector()
        self._slots = [_FleetSlot(i) for i in range(n_slots)]
        self._closed = False
        for slot in self._slots:
            self._spawn(slot)

    def _spawn(self, slot: _FleetSlot) -> None:
        with _SPAWN_LOCK:
            parent_sock, child_sock = socket.socketpair()
            process = multiprocessing.Process(
                target=_fleet_main,
                args=(self.fn, self.initializer, self.initargs, child_sock),
                daemon=True,
            )
            process.start()
            # The child is now the only holder of its end, so its death
            # is EOF here.
            child_sock.close()
        self._selector.register(parent_sock, selectors.EVENT_READ,
                                slot.slot_id)
        slot.sock = parent_sock
        slot.process = process
        slot.alive = True

    def _kill(self, slot: _FleetSlot) -> None:
        if slot.sock is not None:
            try:
                self._selector.unregister(slot.sock)
            except (KeyError, ValueError):
                pass
            slot.sock.close()
            slot.sock = None
        process = slot.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        slot.alive = False
        slot.current = None

    def _recover(self, slot: _FleetSlot) -> None:
        """Replace a dead or hung process while the budget lasts."""
        self._kill(slot)
        self.worker_respawns += 1
        if self.worker_respawns <= self.max_respawns:
            self._spawn(slot)
        else:
            self._retire(slot)

    # -- one tick --------------------------------------------------------
    def _step(self) -> None:
        self._dispatch()
        busy = [s.current[2] for s in self._slots if s.current is not None]
        for key, _mask in self._selector.select(self._wait_budget(busy)):
            slot = self._slots[key.data]
            if not slot.alive or slot.sock is not key.fileobj:
                continue  # a slot recovered earlier in this same pass
            try:
                message = recv_frame(slot.sock, self.frame_timeout_s)
            except TransportError as exc:
                self._on_link_failure(slot, exc)
                continue
            if message is not None:
                self._handle_message(slot, message)
        self._enforce_deadlines()
        # Refill idle slots before the consumer handles what landed.
        self._dispatch()

    def _dispatch(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not slot.alive or slot.current is not None:
                continue
            item = self._take_for(slot)
            if item is None:
                continue
            task, attempt = item
            try:
                send_frame(slot.sock,
                           ("task", task.task_id, task.index,
                            task.payload, attempt))
            except TransportError as exc:
                # The process died before taking the task: put it back,
                # surface any final frames it flushed before the link
                # dropped, then recover it like any broken link.
                self._requeue(task, attempt)
                self._drain_final(slot)
                self._on_link_failure(slot, exc)
                continue
            slot.current = (task, attempt, now + task.timeout_s)

    def _drain_final(self, slot: _FleetSlot) -> None:
        """Read frames a dead process flushed before its link dropped.

        A process that failed initialization sends one ``init-error``
        frame and exits; that frame sits in the socket buffer and must
        surface (as :class:`~repro.errors.ResilienceError`) rather than
        vanish when recovery closes the socket.
        """
        while True:
            try:
                message = recv_frame(slot.sock, 0.05)
            except TransportError:
                return
            if message is None:
                return
            self._handle_message(slot, message)

    def _handle_message(self, slot: _FleetSlot, message: tuple) -> None:
        kind = message[0]
        if kind == "init-error":
            raise ResilienceError(
                f"{self.noun} initialization failed: {message[1]}"
            )
        if kind != "result":
            return  # unknown kind: drop rather than misinterpret
        _tag, task_id, status, value = message
        if slot.current is None or slot.current[0].task_id != task_id:
            return  # stale result from an assignment already retried
        task, attempt, _deadline = slot.current
        slot.current = None
        if status == "ok":
            self._land(task, attempt, value)
        else:
            self._record_failure(task, attempt, "error", value)

    def _on_link_failure(self, slot: _FleetSlot,
                         exc: TransportError) -> None:
        """Classify a broken link, book the in-flight task, recover."""
        exitcode = None
        if slot.process is not None:
            slot.process.join(1.0)
            exitcode = slot.process.exitcode
        cause = f"{type(exc).__name__}: {exc}"
        if exitcode is not None:
            cause += f" ({self.noun} exit code {exitcode})"
        task_info = slot.current
        self._recover(slot)
        if task_info is not None:
            task, attempt, _deadline = task_info
            self._record_failure(task, attempt,
                                 _death_kind(exitcode, exc), cause)

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if slot.current is None or slot.current[2] > now:
                continue
            task, attempt, _deadline = slot.current
            self._recover(slot)  # kills the hung process first
            self._record_failure(
                task, attempt, "timeout",
                f"exceeded the {task.timeout_s:.1f}s batch deadline",
            )

    def close(self) -> None:
        """Stop every process; idempotent, safe mid-stream."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if (slot.alive and slot.sock is not None
                    and slot.current is None):
                try:
                    send_frame(slot.sock, ("stop",))
                except TransportError:
                    pass
        deadline = time.monotonic() + 1.0
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(max(0.0, deadline - time.monotonic()))
        for slot in self._slots:
            self._kill(slot)
        if self._selector is not None:
            self._selector.close()
            self._selector = None


class Supervisor(_Fleet):
    """The *pool* backend: a fleet of interchangeable workers.

    :meth:`stream` yields one outcome per task, in task order: the worker
    function's return value, or None for a task quarantined after
    exhausting its retries (``fail_fast=False``).  With
    ``fail_fast=True`` the first quarantine raises
    :class:`~repro.errors.PoisonBatchError` instead.

    ``validate``, if given, is called on every successful result and
    returns an error string (the attempt is treated as failed with kind
    ``corrupt-result``) or None.  Idle workers take the head of one FIFO
    queue, and the fleet opens no more workers than it has tasks.  Past
    ``max_worker_respawns`` replacements the fleet is crash-looping and
    the stream raises :class:`~repro.errors.ResilienceError`.
    """

    #: Backend name under the ExecutorBackend protocol.
    name = "pool"

    def __init__(
        self,
        fn: Callable,
        initializer: Callable | None = None,
        initargs: Sequence = (),
        n_workers: int = 2,
        policy: RetryPolicy | None = None,
        validate: Callable | None = None,
        fail_fast: bool = False,
        max_worker_respawns: int = 32,
    ):
        super().__init__(fn, initializer, initargs, policy, validate,
                         fail_fast, max_worker_respawns)
        self.n_workers = max(1, n_workers)

    # ``stream`` and ``close`` are defined on each backend class itself:
    # perfbench/layers.py wraps them through the class's own __dict__.
    def stream(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None = None,
    ) -> Iterator[object]:
        """Run all tasks; yield outcomes in task order (see class doc)."""
        return self._supervise(tasks, ledger)

    def _start(self, tasks: list[SupervisedTask]) -> None:
        super()._start(tasks)
        self._open(min(self.n_workers, max(1, len(tasks))))

    def _take_for(self, slot: _FleetSlot) -> tuple | None:
        return self._pending.popleft() if self._pending else None

    def _retire(self, slot: _FleetSlot) -> None:
        raise ResilienceError(
            f"worker respawn budget exhausted "
            f"({self.max_respawns}): the fleet is crash-looping"
        )

    def close(self) -> None:
        """Stop every worker; idempotent, safe mid-stream."""
        super().close()
