"""Tests for the supervised process fleets (deadlines, respawn, retry).

Runs under the ``chaos`` marker: every test here injects a worker-level
fault (crash, hang, exception, corrupt payload) and asserts the
supervision core's recovery behavior.  Each case runs on the pool
fleet, and again on the nodes fleet through the ``...OnNodes``
subclasses at the bottom of the module.
"""

import os
import time

import pytest

from repro.errors import PoisonBatchError, ResilienceError
from repro.resilience import (
    ChaosFault,
    ChaosPlan,
    FailureLedger,
    NodesBackend,
    RetryPolicy,
    Supervisor,
    install_chaos,
)
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
    return f"done-{index}"


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

    def make(self, n=2, max_respawns=None, **kwargs):
        kwargs.setdefault("policy", FAST)
        if self.fleet == "pool":
            if max_respawns is not None:
                kwargs["max_worker_respawns"] = max_respawns
            return Supervisor(_work, n_workers=n, **kwargs)
        if max_respawns is not None:
            kwargs["max_node_respawns"] = max_respawns
        return NodesBackend(_work, n_nodes=n, **kwargs)

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
                                        validate=_validate, fail_fast=False)
        assert outcomes == [None, "done-1", "done-2"]
        report = supervisor.ledger.build_report()
        assert report.n_quarantined == 1
        # Retry budget: 1 + max_retries attempts, all failed.
        assert len(report.batches[0].attempts) == 1 + FAST.max_retries

    def test_fail_fast_raises_poison_batch_error(self):
        supervisor = self.make(validate=_validate, fail_fast=True)
        with pytest.raises(PoisonBatchError):
            list(supervisor.stream(_tasks(["always-bad", "ok"])))

    def test_completed_results_survive_fail_fast(self):
        """Work that landed before the poison verdict stays retrievable,
        so an interrupted sweep can flush it to its cache."""
        supervisor = self.make(validate=_validate, fail_fast=True)
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
        supervisor = self.make()
        outcomes = list(supervisor.stream(_tasks(["error", "ok"]),
                                          ledger=ledger))
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
        supervisor = Supervisor(_work, initializer=install_chaos,
                                initargs=(plan,), n_workers=2, policy=FAST)
        outcomes = list(supervisor.stream(_tasks(["ok", "ok", "ok"])))
        assert outcomes == ["done-0", "done-1", "done-2"]
        batch = supervisor.ledger.build_report().batches[0]
        assert batch.attempts[0].kind == "node-lost"
        assert "TruncatedFrameError" in batch.attempts[0].cause
        assert "exit code 23" in batch.attempts[0].cause
        assert batch.recovered


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
