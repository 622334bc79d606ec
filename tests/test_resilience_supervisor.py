"""Tests for the supervised process fleets (deadlines, respawn, retry).

Runs under the ``chaos`` marker: every test here injects a worker-level
fault (crash, hang, exception, corrupt payload) and asserts the
supervision core's recovery behavior.  Each case runs on the pool
fleet, and again on the nodes fleet through the ``...OnNodes``
subclasses at the bottom of the module.
"""

import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import PoisonBatchError, ResilienceError
from repro.resilience import (
    ChaosFault,
    ChaosPlan,
    FailureLedger,
    NodesBackend,
    RetryPolicy,
    SerialBackend,
    Supervisor,
)
from repro.resilience import supervisor as supervisor_mod
from repro.resilience.supervisor import SupervisedTask

pytestmark = pytest.mark.chaos

#: Fast retry policy so fault tests stay sub-second per retry round.
FAST = RetryPolicy(max_retries=2, base_delay_s=0.01, max_delay_s=0.05,
                   seed=0)


def _work(payload, attempt):
    """Picklable worker body driven by its payload: (index, mode)."""
    index, mode = payload
    if mode == "crash" and attempt == 0:
        os._exit(7)
    if mode == "hang" and attempt == 0:
        time.sleep(60.0)
    if mode == "error" and attempt == 0:
        raise ValueError("injected failure")
    if mode == "always-bad":
        time.sleep(0.2)  # let healthy siblings land first
        return None
    if mode == "slow":
        time.sleep(0.6)
    if mode == "pid":
        return f"pid-{os.getpid()}"
    if mode == "attempt":
        return f"attempt-{attempt}"
    return f"done-{index}"


def _big_work(payload, attempt):
    """Fleet body whose result is as large as its payload's blob."""
    index, blob = payload
    return bytes([index]) * len(blob)


@contextlib.contextmanager
def _fails_after(seconds):
    """Fail the test, rather than hang it, if the body outlives
    ``seconds`` (the alarm interrupts even a blocked send)."""
    def expire(signum, frame):
        pytest.fail(f"no outcome within {seconds:.0f}s: the fleet is stuck")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _attempt_kinds(report):
    """A failure report without its causes, which name how a fault was
    suffered (a real exit code, or serial mode) rather than what it was."""
    return [(b.index, [(a.attempt, a.kind) for a in b.attempts],
             b.recovered, b.quarantined) for b in report.batches]


def _validate(value):
    return None if isinstance(value, str) else "not a string"


def _tasks(modes, timeout_s=10.0):
    return [
        SupervisedTask(task_id=i, index=i, payload=(i, mode),
                       timeout_s=timeout_s)
        for i, mode in enumerate(modes)
    ]


class _OnPool:
    """Builds the fleet under test: the pool here, the nodes fleet in
    the ``...OnNodes`` subclasses."""

    fleet = "pool"
    #: What the crash-loop error says once the respawn budget is spent.
    budget_error = "respawn budget"

    def make(self, n=2, max_respawns=None, fn=_work, fail_policy="degrade",
             ledger=None, chaos=None, **kwargs):
        if ledger is None:
            ledger = FailureLedger(FAST, fail_policy)
        if self.fleet == "pool":
            if max_respawns is not None:
                kwargs["max_worker_respawns"] = max_respawns
            return Supervisor(fn, ledger, chaos, n_workers=n, **kwargs)
        if max_respawns is not None:
            kwargs["max_node_respawns"] = max_respawns
        return NodesBackend(fn, ledger, chaos, n_nodes=n, **kwargs)

    def run(self, modes, timeout_s=10.0, **kwargs):
        backend = self.make(**kwargs)
        return backend, list(backend.stream(_tasks(modes, timeout_s)))


class TestHappyPath(_OnPool):
    def test_results_stream_in_task_order(self):
        supervisor, outcomes = self.run(["ok"] * 6)
        assert outcomes == [f"done-{i}" for i in range(6)]
        assert supervisor.worker_respawns == 0
        assert supervisor.ledger.build_report().clean

    def test_non_contiguous_task_ids_rejected(self):
        supervisor = self.make(n=1)
        bad = [SupervisedTask(task_id=5, index=0, payload=(0, "ok"),
                              timeout_s=1.0)]
        with pytest.raises(ResilienceError):
            list(supervisor.stream(bad))


class TestFaultRecovery(_OnPool):
    def test_crash_is_retried_on_a_fresh_worker(self):
        supervisor, outcomes = self.run(["crash", "ok"])
        assert outcomes == ["done-0", "done-1"]
        assert supervisor.worker_respawns >= 1
        report = supervisor.ledger.build_report()
        assert report.batches[0].attempts[0].kind == "crash"
        assert "exit code 7" in report.batches[0].attempts[0].cause
        assert report.batches[0].recovered

    def test_hang_blows_deadline_and_recovers(self):
        supervisor, outcomes = self.run(["hang", "ok"], timeout_s=0.5)
        assert outcomes == ["done-0", "done-1"]
        assert supervisor.worker_respawns >= 1  # the hung process died
        report = supervisor.ledger.build_report()
        assert report.batches[0].attempts[0].kind == "timeout"
        assert report.batches[0].recovered

    def test_worker_exception_recorded_and_retried(self):
        supervisor, outcomes = self.run(["error", "ok"])
        assert outcomes == ["done-0", "done-1"]
        attempt = supervisor.ledger.build_report().batches[0].attempts[0]
        assert attempt.kind == "error"
        assert "injected failure" in attempt.cause

    def test_corrupt_payload_caught_by_validation(self):
        supervisor, outcomes = self.run(["ok", "ok"], validate=_validate)
        assert outcomes == ["done-0", "done-1"]
        # Now one batch that always returns garbage: every attempt is a
        # corrupt-result failure, so the batch must be quarantined.
        supervisor, outcomes = self.run(["always-bad", "ok"],
                                        validate=_validate)
        assert outcomes == [None, "done-1"]
        failure = supervisor.ledger.build_report().batches[0]
        assert failure.quarantined
        assert {a.kind for a in failure.attempts} == {"corrupt-result"}


class TestPoisonHandling(_OnPool):
    def test_degrade_yields_none_for_poison(self):
        supervisor, outcomes = self.run(["always-bad", "ok", "ok"],
                                        validate=_validate,
                                        fail_policy="degrade")
        assert outcomes == [None, "done-1", "done-2"]
        report = supervisor.ledger.build_report()
        assert report.n_quarantined == 1
        # Retry budget: 1 + max_retries attempts, all failed.
        assert len(report.batches[0].attempts) == 1 + FAST.max_retries

    def test_fail_fast_raises_poison_batch_error(self):
        supervisor = self.make(validate=_validate, fail_policy="raise")
        with pytest.raises(PoisonBatchError):
            list(supervisor.stream(_tasks(["always-bad", "ok"])))

    def test_completed_results_survive_fail_fast(self):
        """Work that landed before the poison verdict stays retrievable,
        so an interrupted sweep can flush it to its cache."""
        supervisor = self.make(validate=_validate, fail_policy="raise")
        with pytest.raises(PoisonBatchError):
            list(supervisor.stream(_tasks(["always-bad", "ok"])))
        landed = dict(supervisor.completed_unyielded())
        assert landed.get(1) == "done-1"


class TestRespawnBudget(_OnPool):
    def test_crash_loop_exhausts_budget(self):
        supervisor = self.make(n=1, max_respawns=0)
        with pytest.raises(ResilienceError, match=self.budget_error):
            list(supervisor.stream(_tasks(["crash"])))


class TestLedgerSharing(_OnPool):
    def test_external_ledger_is_used(self):
        ledger = FailureLedger(FAST, "degrade")
        supervisor = self.make(ledger=ledger)
        outcomes = list(supervisor.stream(_tasks(["error", "ok"])))
        assert outcomes == ["done-0", "done-1"]
        assert supervisor.ledger is ledger
        assert ledger.build_report().n_failed_batches == 1

    def test_close_is_idempotent(self):
        supervisor, _ = self.run(["ok"])
        supervisor.close()
        supervisor.close()


class TestHalfWrittenResult:
    def test_worker_dying_mid_frame_is_retried(self):
        """A worker killed halfway through writing its result frame
        leaves a truncated frame that is booked and retried — never a
        reader blocked on the missing half."""
        plan = ChaosPlan(seed=0, faults=(ChaosFault("node-lost", 0),))
        supervisor = Supervisor(_work, FailureLedger(FAST, "degrade"), plan,
                                n_workers=2)
        outcomes = list(supervisor.stream(_tasks(["ok", "ok", "ok"])))
        assert outcomes == ["done-0", "done-1", "done-2"]
        batch = supervisor.ledger.build_report().batches[0]
        assert batch.attempts[0].kind == "node-lost"
        assert "TruncatedFrameError" in batch.attempts[0].cause
        assert "exit code 23" in batch.attempts[0].cause
        assert batch.recovered


class TestWindow(_OnPool):
    """Each process holds up to two tasks: the one it runs (the head)
    and one queued behind it."""

    def test_two_tasks_run_on_two_processes(self):
        """Windows fill breadth-first: the second process gets the
        second task, not the first process's queue."""
        _, outcomes = self.run(["pid", "pid"])
        assert len(set(outcomes)) == 2

    @pytest.mark.parametrize("mode, kind", [("crash", "crash"),
                                            ("hang", "timeout")])
    def test_failure_books_only_the_running_task(self, mode, kind):
        """One process, two tasks: the second is queued behind the one
        that dies, goes back to the queue unbooked and lands at its
        first attempt."""
        supervisor, outcomes = self.run([mode, "attempt"], n=1,
                                        timeout_s=0.5)
        assert outcomes == ["done-0", "attempt-0"]
        report = supervisor.ledger.build_report()
        assert _attempt_kinds(report) == [(0, [(0, kind)], True, False)]
        if mode == "crash":
            # The unread queued task resets the link; it still reads as
            # the close a crash without one leaves.
            assert report.batches[0].attempts[0].cause.startswith(
                "NodeLostError: peer closed the connection at a frame "
                "boundary"
            )

    def test_report_equals_serial_for_the_same_chaos_plan(self):
        """Both backends run the same plain task function with the same
        plan; each injects and books the faults itself."""
        plan = ChaosPlan(seed=0, faults=(
            ChaosFault("crash", 0), ChaosFault("hang", 1),
            ChaosFault("node-lost", 2), ChaosFault("shard-partition", 3),
            ChaosFault("corrupt-result", 4),
        ))
        tasks = _tasks(["ok"] * 6, timeout_s=0.5)
        serial = SerialBackend(_work, FailureLedger(FAST, "degrade"), plan,
                               validate=_validate)
        fleet = self.make(chaos=plan, validate=_validate)
        expected = list(serial.stream(tasks))
        assert list(fleet.stream(tasks)) == expected
        assert _attempt_kinds(fleet.ledger.build_report()) == \
            _attempt_kinds(serial.ledger.build_report())

    def test_deadline_starts_at_the_head(self):
        """Two 0.6 s tasks queued on one process under a 1.5 s deadline:
        the second waits 0.6 s behind the first, which must not count
        against it (from send time it would need 1.2 s of the 1.5 s)."""
        supervisor, outcomes = self.run(["slow", "slow"], n=1,
                                        timeout_s=1.5)
        assert outcomes == ["done-0", "done-1"]
        assert supervisor.ledger.build_report().clean
        assert supervisor.worker_respawns == 0

    def test_frames_larger_than_the_socket_buffer(self):
        """One process, two tasks whose payload and result are 1 MB
        each.  The process sends the head's result before it reads the
        queued task, so the parent must never block sending that task:
        two blocking sends, one on each side, would wait on each
        other for good."""
        size = 1 << 20
        tasks = [SupervisedTask(task_id=i, index=i,
                                payload=(i, bytes(size)), timeout_s=10.0)
                 for i in range(2)]
        fleet = self.make(n=1, fn=_big_work)
        with _fails_after(30.0):
            outcomes = list(fleet.stream(tasks))
        assert outcomes == [bytes([i]) * size for i in range(2)]
        assert fleet.ledger.build_report().clean
        assert fleet.worker_respawns == 0


class TestSpawnedFleet:
    def test_chaos_plan_reaches_spawned_workers(self, monkeypatch):
        """Under ``spawn`` a worker inherits nothing: the plan must reach
        it as a process argument, and the report equal serial's."""
        monkeypatch.setattr(supervisor_mod, "multiprocessing",
                            multiprocessing.get_context("spawn"))
        plan = ChaosPlan(seed=0, faults=(
            ChaosFault("crash", 0), ChaosFault("corrupt-result", 1),
            ChaosFault("node-lost", 2),
        ))
        tasks = _tasks(["ok"] * 4)
        serial = SerialBackend(_work, FailureLedger(FAST, "degrade"), plan,
                               validate=_validate)
        pool = Supervisor(_work, FailureLedger(FAST, "degrade"), plan,
                          n_workers=2, validate=_validate)
        expected = list(serial.stream(tasks))
        assert list(pool.stream(tasks)) == expected
        kinds = _attempt_kinds(pool.ledger.build_report())
        assert kinds == _attempt_kinds(serial.ledger.build_report())
        assert [k[1] for k in kinds] == [
            [(0, "crash")], [(0, "corrupt-result")], [(0, "node-lost")],
        ]


# The same cases on the nodes fleet.
class _OnNodes(_OnPool):
    fleet = "nodes"
    # One node and no respawns: losing it leaves no survivor.
    budget_error = "every node is lost"


class TestHappyPathOnNodes(_OnNodes, TestHappyPath):
    pass


class TestFaultRecoveryOnNodes(_OnNodes, TestFaultRecovery):
    pass


class TestPoisonHandlingOnNodes(_OnNodes, TestPoisonHandling):
    pass


class TestRespawnBudgetOnNodes(_OnNodes, TestRespawnBudget):
    pass


class TestLedgerSharingOnNodes(_OnNodes, TestLedgerSharing):
    pass


class TestWindowOnNodes(_OnNodes, TestWindow):
    pass
