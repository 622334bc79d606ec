"""The supervision core: one state machine, one process fleet, the pool.

This replaces the bare ``multiprocessing.Pool.imap`` dispatch the sweep
engine used to rely on.  A pool stream has three failure modes that each
kill an entire 240k-sample campaign: a worker exception aborts the whole
``imap`` iterator, a crashed worker loses its in-flight chunk forever,
and a hung worker stalls the stream with no diagnosis.  Every backend
instead tracks each batch as its own assignment, through the one loop
in :class:`ExecutorBackend`:

- every failed attempt is booked in the backend's
  :class:`~repro.resilience.report.FailureLedger`, the one source of
  retry and fail policy: a failed attempt backs off per the ledger's
  deterministic :class:`~repro.resilience.policy.RetryPolicy` and jumps
  the queue once due; past the budget a task is quarantined as *poison*
  and the stream degrades gracefully (yields None) or fails fast
  (:class:`~repro.errors.PoisonBatchError`), per the ledger's
  ``fail_policy``,
- a backend built with a :class:`~repro.resilience.chaos.ChaosPlan`
  injects that plan's faults itself, by task index and attempt: the
  task function never sees a fault,
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
behind one selector.  A slot holds a **window** of up to
:data:`WINDOW` tasks: the one its process runs (the head) and one
queued behind it, so the process starts its next task while the parent
is still reading the last result.  Windows fill breadth-first — every
live slot gets its first task before any slot gets a second.  The head
runs under a wall-clock **deadline** that starts when it becomes the
head, not when it was sent; a process that blows it is killed and
respawned.  A process that dies shows up as EOF on its link, and one
killed mid-result leaves a :class:`~repro.errors.TruncatedFrameError`
that is booked and retried within ``frame_timeout_s`` — never a reader
blocked on half a message.  Every death is classified the same way on
every backend (a chaos exit code names its fault kind; any other death
is a ``crash``), and only the head is booked: the tasks queued behind
it go back to the front of the queue, in order, at the same attempt.
The parent never blocks on a send: a process reads its queued task
only after sending the head's result, so task frames are written as
far as the link takes them and the rest when it has room again.
A fleet process gets the task function and the chaos plan as its
process arguments (inherited under ``fork``, pickled once under
``spawn`` or ``forkserver``); it fires a node fault at the transport
and suffers a worker fault (crash, hang, corrupt payload) before it
calls the task function.

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
from dataclasses import dataclass, field

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
    NODE_FAULT_KINDS,
    ChaosPlan,
    corrupted_payload,
    trigger_node_fault,
    trigger_worker_fault,
)
from repro.resilience.report import FailureLedger
from repro.resilience.transport import (
    encode_frame,
    recv_frame,
    send_available,
    send_frame,
)

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

    A backend is built from its task function ``fn(payload, attempt)``,
    its :class:`~repro.resilience.report.FailureLedger` and its
    :class:`~repro.resilience.chaos.ChaosPlan` (None: no faults).
    ``stream(tasks)`` yields one outcome per task in task_id order — the
    result, or None for a quarantined task — and books every failed
    attempt in :attr:`ledger`, whose retry policy and fail policy are
    the only ones the backend follows.  A subclass says how one tick
    makes progress (:meth:`_step`) and injects the chaos plan's faults
    on the way (serial in its tick, a fleet in its processes); this
    class owns the seeded retry heap, validation, the cancel check and
    the ordered yield.
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
        ledger: FailureLedger,
        chaos: ChaosPlan | None = None,
        validate: Callable | None = None,
    ):
        self.fn = fn
        self.ledger = ledger
        self.chaos = chaos
        self.validate = validate
        #: Worker/node respawns performed so far (failure-report field).
        self.worker_respawns = 0
        self._pending: deque = deque()
        self._retry_heap: list = []
        self._retry_seq = 0
        self._outcomes: dict[int, tuple[str, object]] = {}
        self._yielded = 0

    @abc.abstractmethod
    def stream(self, tasks: Sequence[SupervisedTask]) -> Iterator[object]:
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

    def _supervise(self, tasks: Sequence[SupervisedTask]) -> Iterator[object]:
        tasks = list(tasks)
        if [t.task_id for t in tasks] != list(range(len(tasks))):
            raise ResilienceError(
                "task_ids must be the contiguous sequence 0..n-1 in "
                "submission order"
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
        quarantine the task (raising under the ledger's
        ``fail_policy="raise"``)."""
        retry = self.ledger.record_failure(
            task.index, task.identity, attempt, kind, cause
        )
        if retry:
            delay = self.ledger.policy.delay_s(task.index, attempt + 1)
            self._retry_seq += 1
            heapq.heappush(
                self._retry_heap,
                (time.monotonic() + delay, self._retry_seq, task,
                 attempt + 1),
            )
            return
        self._outcomes[task.task_id] = ("poison", None)
        if self.ledger.fail_policy == "raise":
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


def _fleet_main(fn, chaos, sock):
    """Fleet process body: serve framed tasks until told to stop.

    The chaos plan's faults fire here, before ``fn`` runs: a node fault
    at the transport layer (see
    :func:`~repro.resilience.chaos.trigger_node_fault`), so the parent
    exercises the real truncated-frame and boundary-EOF recovery paths
    rather than a polite error message; then a worker fault, suffered
    for real (a crash exits, a hang sleeps past the deadline) or, for a
    corrupt result, sent in place of the task's.
    """
    _detach_inherited_signals()
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
            fault = chaos.attempt_fault(index, attempt) if chaos else None
            if fault in NODE_FAULT_KINDS:
                trigger_node_fault(fault, sock, task_id)  # never returns
            if fault == "corrupt-result":
                reply = ("ok", corrupted_payload(index))
            else:
                if fault is not None:
                    trigger_worker_fault(fault)  # crash never returns
                try:
                    reply = ("ok", fn(payload, attempt))
                except Exception as exc:
                    reply = ("error", f"{type(exc).__name__}: {exc}")
            send_frame(sock, ("result", task_id, *reply))
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


#: Tasks a fleet process holds at once: the one it runs and one queued
#: behind it, so it never idles while the parent reads, validates and
#: hands on a result and then sends the next task.
WINDOW = 2


@dataclass
class _FleetSlot:
    """One fleet process, its link, and the tasks sent to it."""

    slot_id: int
    sock: socket.socket | None = None
    process: multiprocessing.Process | None = None
    #: ``(task, attempt)`` of every task sent and not yet answered, in
    #: send order; the process runs the head and serves the rest after.
    inflight: deque = field(default_factory=deque)
    #: The unsent rest of the frames of the last ``len(outbox)`` tasks
    #: in :attr:`inflight`, oldest first; written as the link takes them.
    outbox: deque = field(default_factory=deque)
    #: The head's deadline, stamped on the first deadline sweep after it
    #: became the head (None until then).
    deadline: float | None = None
    #: False while down, and for good once the slot is abandoned.
    alive: bool = False


class _Fleet(ExecutorBackend):
    """Supervised processes over frame links: everything the pool and
    nodes backends share.  Subclasses choose which queued task a slot
    with room in its window takes (:meth:`_take_for`) and what happens
    once the respawn budget is spent (:meth:`_retire`)."""

    #: What the fleet calls one of its processes, in messages.
    noun = "worker"
    #: Longest a read may wait for the rest of a frame once its first
    #: byte has arrived; a process killed mid-result is booked by then.
    frame_timeout_s = 5.0

    def __init__(
        self,
        fn: Callable,
        ledger: FailureLedger,
        chaos: ChaosPlan | None,
        validate: Callable | None,
        max_respawns: int,
    ):
        super().__init__(fn, ledger, chaos, validate)
        self.max_respawns = max_respawns
        self._slots: list[_FleetSlot] = []
        self._selector: selectors.BaseSelector | None = None
        self._closed = True

    @abc.abstractmethod
    def _take_for(self, slot: _FleetSlot) -> tuple | None:
        """The ``(task, attempt)`` a slot with room queues next, if any."""

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
                args=(self.fn, self.chaos, child_sock),
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
        slot.inflight.clear()
        slot.outbox.clear()
        slot.deadline = None

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
        deadlines = [s.deadline for s in self._slots
                     if s.deadline is not None]
        for key, mask in self._selector.select(self._wait_budget(deadlines)):
            slot = self._slots[key.data]
            if not slot.alive or slot.sock is not key.fileobj:
                continue  # a slot recovered earlier in this same pass
            if mask & selectors.EVENT_WRITE and not self._flush(slot):
                continue  # the link failed; the slot was recovered
            if not mask & selectors.EVENT_READ:
                continue
            try:
                message = recv_frame(slot.sock, self.frame_timeout_s)
            except TransportError as exc:
                self._on_link_failure(slot, exc)
                continue
            if message is not None:
                self._handle_message(slot, message)
        self._enforce_deadlines()
        # Refill the windows before the consumer handles what landed.
        self._dispatch()

    def _dispatch(self) -> None:
        """Fill every live slot's window, breadth-first: each slot gets
        its first task before any slot gets a second, so two tasks on
        two processes run on both."""
        for depth in range(WINDOW):
            for slot in self._slots:
                if not slot.alive or len(slot.inflight) > depth:
                    continue
                item = self._take_for(slot)
                if item is None:
                    continue
                task, attempt = item
                frame = encode_frame(("task", task.task_id, task.index,
                                      task.payload, attempt))
                slot.inflight.append(item)
                slot.outbox.append(memoryview(frame))
                self._flush(slot)

    def _flush(self, slot: _FleetSlot) -> bool:
        """Write the slot's unsent frames as far as its link takes them
        without blocking, and watch the link for room while any remain.
        Returns False if the link failed (the slot is then recovered).

        The parent never blocks on a send: a process reads its queued
        task only after it has sent its head's result, so a blocking
        send of a frame larger than the socket buffer would wait on a
        process that waits on the parent to read that result.
        """
        try:
            while slot.outbox:
                frame = slot.outbox[0]
                sent = send_available(slot.sock, frame)
                if sent < len(frame):
                    slot.outbox[0] = frame[sent:]
                    break
                slot.outbox.popleft()
        except TransportError as exc:
            # Surface any final frames the process flushed before the
            # link dropped, then recover it like any broken link, booked
            # by how the link ended on read, as if this send had not
            # raced the death.
            self._on_link_failure(slot, self._drain_final(slot) or exc)
            return False
        events = selectors.EVENT_READ
        if slot.outbox:
            events |= selectors.EVENT_WRITE
        if self._selector.get_key(slot.sock).events != events:
            self._selector.modify(slot.sock, events, slot.slot_id)
        return True

    def _drain_final(self, slot: _FleetSlot) -> TransportError | None:
        """Read frames a dead process flushed before its link dropped;
        return the error that ended the link (None if a read timed out).

        A result the process sent before it died sits in the socket
        buffer and must land rather than vanish when recovery closes
        the socket.
        """
        while True:
            try:
                message = recv_frame(slot.sock, 0.05)
            except TransportError as exc:
                return exc
            if message is None:
                return None
            self._handle_message(slot, message)

    def _handle_message(self, slot: _FleetSlot, message: tuple) -> None:
        kind = message[0]
        if kind != "result":
            return  # unknown kind: drop rather than misinterpret
        _tag, task_id, status, value = message
        if not slot.inflight or slot.inflight[0][0].task_id != task_id:
            return  # stale result from an assignment already retried
        task, attempt = slot.inflight.popleft()
        slot.deadline = None  # the next head's clock starts next sweep
        if status == "ok":
            self._land(task, attempt, value)
        else:
            self._record_failure(task, attempt, "error", value)

    def _unwind(self, slot: _FleetSlot) -> tuple | None:
        """Empty a failed slot's window.  Returns its head, the
        ``(task, attempt)`` the process was running and the only one a
        failure books, or None if no frame was sent whole (the process
        never had a task).  Every other task goes back to the front of
        the queue, in order, unbooked and at the same attempt."""
        started = len(slot.inflight) > len(slot.outbox)
        head = slot.inflight.popleft() if started else None
        for task, attempt in reversed(slot.inflight):
            self._requeue(task, attempt)
        slot.inflight.clear()
        slot.outbox.clear()
        slot.deadline = None
        return head

    def _on_link_failure(self, slot: _FleetSlot,
                         exc: TransportError) -> None:
        """Classify a broken link, book the running task, recover."""
        exitcode = None
        if slot.process is not None:
            slot.process.join(1.0)
            exitcode = slot.process.exitcode
        cause = f"{type(exc).__name__}: {exc}"
        if exitcode is not None:
            cause += f" ({self.noun} exit code {exitcode})"
        head = self._unwind(slot)
        self._recover(slot)
        if head is not None:
            task, attempt = head
            self._record_failure(task, attempt,
                                 _death_kind(exitcode, exc), cause)

    def _enforce_deadlines(self) -> None:
        """Start the clock of every new head; kill a process whose head
        is past its deadline.  A task's deadline starts when it reaches
        the head of its window, not when it was sent, so time spent
        queued behind a slow head never counts against it."""
        now = time.monotonic()
        for slot in self._slots:
            if not slot.inflight:
                continue
            if slot.deadline is None:
                slot.deadline = now + slot.inflight[0][0].timeout_s
                continue
            if slot.deadline > now:
                continue
            head = self._unwind(slot)
            self._recover(slot)  # kills the hung process first
            if head is not None:
                task, attempt = head
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
                    and not slot.inflight):
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
    exhausting its retries (the ledger's ``fail_policy="degrade"``).
    Under ``fail_policy="raise"`` the first quarantine raises
    :class:`~repro.errors.PoisonBatchError` instead.

    ``validate``, if given, is called on every successful result and
    returns an error string (the attempt is treated as failed with kind
    ``corrupt-result``) or None.  A worker with room in its window
    takes the head of one FIFO queue, and the fleet opens no more
    workers than it has tasks.  Past ``max_worker_respawns``
    replacements the fleet is crash-looping and the stream raises
    :class:`~repro.errors.ResilienceError`.
    """

    #: Backend name under the ExecutorBackend protocol.
    name = "pool"

    def __init__(
        self,
        fn: Callable,
        ledger: FailureLedger,
        chaos: ChaosPlan | None = None,
        n_workers: int = 2,
        validate: Callable | None = None,
        max_worker_respawns: int = 32,
    ):
        super().__init__(fn, ledger, chaos, validate, max_worker_respawns)
        self.n_workers = max(1, n_workers)

    # ``stream`` and ``close`` are defined on each backend class itself:
    # perfbench/layers.py wraps them through the class's own __dict__.
    def stream(self, tasks: Sequence[SupervisedTask]) -> Iterator[object]:
        """Run all tasks; yield outcomes in task order (see class doc)."""
        return self._supervise(tasks)

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
