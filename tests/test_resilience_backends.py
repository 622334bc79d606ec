"""Tests for the executor-backend abstraction and the nodes backend.

The serial backend is the parity reference; the nodes backend runs one
process per shard over socketpair links with work stealing and a
budgeted node-loss recovery ladder.  These tests pin the serial
``stream`` contract, what only the nodes backend does (home shards,
stealing, node faults, every rung of the recovery ladder: retry,
respawn, shard reassignment, and the no-survivors failure), its
``ShardReport`` and the health probe.  The steal and reassignment
cases starve a lane through ``NodesBackend.home_shards``, the seam
that overrides the round-robin homes.  The supervision cases both fleets share run on each of
them in ``tests/test_resilience_supervisor.py``.

Runs under the ``chaos`` marker: most tests inject node-level faults.
"""

import time

import pytest

from repro.errors import PoisonBatchError, ResilienceError
from repro.resilience import (
    BACKEND_NAMES,
    ChaosFault,
    ChaosPlan,
    ExecutorBackend,
    FailureLedger,
    NodesBackend,
    ReassignEvent,
    RetryPolicy,
    SerialBackend,
    ShardReport,
    StealEvent,
    Supervisor,
)
from repro.resilience.supervisor import SupervisedTask

pytestmark = pytest.mark.chaos

#: Fast retry policy so fault tests stay sub-second per retry round.
FAST = RetryPolicy(max_retries=2, base_delay_s=0.01, max_delay_s=0.05,
                   seed=0)


def _work(payload, attempt):
    """Picklable node body driven by its payload: (index, mode)."""
    index, mode = payload
    if mode == "error" and attempt == 0:
        raise ValueError("injected failure")
    if mode == "slow":
        time.sleep(0.3)
    if mode == "always-bad":
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


def _ledger(fail_policy="degrade"):
    return FailureLedger(FAST, fail_policy)


def _node_plan(kind, index, attempts=(0,)):
    return ChaosPlan(seed=0, faults=(ChaosFault(kind, index, attempts),))


class TestProtocol:
    def test_backend_axis_names(self):
        assert BACKEND_NAMES == ("serial", "pool", "nodes")
        assert SerialBackend.name == "serial"
        assert Supervisor.name == "pool"
        assert NodesBackend.name == "nodes"

    def test_supervisor_is_a_virtual_backend(self):
        # A real subclass now: the pool runs the shared supervision core.
        assert ExecutorBackend in Supervisor.__mro__
        supervisor = Supervisor(_work, _ledger(), n_workers=1)
        assert isinstance(supervisor, ExecutorBackend)
        supervisor.close()

    def test_every_backend_closes_idempotently(self):
        serial = SerialBackend(_work, _ledger())
        nodes = NodesBackend(_work, _ledger(), n_nodes=2)
        for backend in (serial, nodes):
            backend.close()
            backend.close()


class TestSerialBackend:
    def test_results_stream_in_task_order(self):
        backend = SerialBackend(_work, _ledger())
        assert list(backend.stream(_tasks(["ok"] * 5))) == [
            f"done-{i}" for i in range(5)
        ]
        assert backend.ledger.build_report().clean

    def test_non_contiguous_task_ids_rejected(self):
        bad = [SupervisedTask(task_id=3, index=0, payload=(0, "ok"),
                              timeout_s=1.0)]
        with pytest.raises(ResilienceError):
            list(SerialBackend(_work, _ledger()).stream(bad))

    def test_exception_retried_then_recovered(self):
        backend = SerialBackend(_work, _ledger())
        assert list(backend.stream(_tasks(["error", "ok"]))) == [
            "done-0", "done-1"
        ]
        report = backend.ledger.build_report()
        assert report.batches[0].attempts[0].kind == "error"
        assert report.batches[0].recovered

    def test_chaos_fault_books_its_kind(self):
        ran = []

        def tracked(payload, attempt):
            ran.append((payload[0], attempt))
            return _work(payload, attempt)

        backend = SerialBackend(tracked, _ledger(),
                                _node_plan("node-lost", 0))
        assert list(backend.stream(_tasks(["x", "ok"]))) == [
            "done-0", "done-1"
        ]
        attempt = backend.ledger.build_report().batches[0].attempts[0]
        assert attempt.kind == "node-lost"
        assert "injected node loss" in attempt.cause
        # The fault is booked without running the task; its retry runs
        # before the next task does.
        assert ran == [(0, 1), (1, 0)]

    def test_validation_failure_is_corrupt_result(self):
        backend = SerialBackend(_work, _ledger(), validate=_validate)
        outcomes = list(backend.stream(_tasks(["always-bad", "ok"])))
        assert outcomes == [None, "done-1"]
        report = backend.ledger.build_report()
        assert report.batches[0].attempts[0].kind == "corrupt-result"
        assert not report.batches[0].recovered

    def test_fail_fast_raises_poison(self):
        backend = SerialBackend(_work, _ledger("raise"),
                                validate=_validate)
        with pytest.raises(PoisonBatchError, match="quarantined"):
            list(backend.stream(_tasks(["always-bad"])))

    def test_fail_fast_stops_at_the_poison_task(self):
        ran = []

        def tracked(payload, attempt):
            ran.append(payload[0])
            return _work(payload, attempt)

        backend = SerialBackend(tracked, _ledger("raise"),
                                validate=_validate)
        with pytest.raises(PoisonBatchError, match="batch 1"):
            list(backend.stream(_tasks(["ok", "always-bad", "ok", "ok"])))
        # Task 1 runs all three attempts back to back; nothing after it
        # runs, so nothing is left landed-but-unconsumed to flush.
        assert ran == [0, 1, 1, 1]
        assert backend.completed_unyielded() == []

    def test_completed_unyielded_flushes_partial_progress(self):
        backend = SerialBackend(_work, _ledger())
        stream = backend.stream(_tasks(["ok", "ok", "ok"]))
        assert next(stream) == "done-0"
        stream.close()
        # Nothing landed-but-unconsumed here (serial yields eagerly),
        # but the protocol method must exist and return pairs.
        assert backend.completed_unyielded() == []


class TestNodesHappyPath:
    def test_results_stream_in_task_order(self):
        backend = NodesBackend(_work, _ledger(), n_nodes=3)
        try:
            outcomes = list(backend.stream(_tasks(["ok"] * 9)))
        finally:
            backend.close()
        assert outcomes == [f"done-{i}" for i in range(9)]
        assert backend.ledger.build_report().clean
        report = backend.shard_report()
        assert report.n_shards == 3
        assert len(report.assignments) == 9

    def test_home_shard_override_validated(self):
        backend = NodesBackend(_work, _ledger(), n_nodes=2)
        backend.home_shards = [0]
        with pytest.raises(ResilienceError):
            list(backend.stream(_tasks(["ok", "ok"])))

class TestWorkStealing:
    def test_starved_shard_steals_and_order_is_preserved(self):
        # All six tasks homed on shard 0; shard 1 starts starved and
        # must steal, yet the outcome order never changes.
        backend = NodesBackend(_work, _ledger(), n_nodes=2)
        backend.home_shards = [0] * 6
        modes = ["slow", "slow", "slow", "slow", "slow", "slow"]
        try:
            outcomes = list(backend.stream(_tasks(modes)))
        finally:
            backend.close()
        assert outcomes == [f"done-{i}" for i in range(6)]
        report = backend.shard_report()
        assert report.n_steals >= 1
        for steal in report.steals:
            assert steal.thief == 1
            assert steal.victim == 0
        # Stolen tasks are re-homed to the thief in the assignment map.
        assert 1 in report.assignments

    def test_no_steals_when_both_lanes_are_fed(self):
        backend = NodesBackend(_work, _ledger(), n_nodes=2)
        backend.home_shards = [0, 1, 0, 1]
        try:
            outcomes = list(backend.stream(
                _tasks(["slow", "slow", "slow", "slow"])
            ))
        finally:
            backend.close()
        assert outcomes == [f"done-{i}" for i in range(4)]


class TestNodeFaultRecovery:
    def test_node_lost_mid_message_recovers(self):
        # The node sends half a result frame and dies (exit 23): the
        # parent books a node-lost failure, respawns, and the retry
        # lands.
        backend = NodesBackend(
            _work, _ledger(), _node_plan("node-lost", 0),
            n_nodes=2,
        )
        try:
            outcomes = list(backend.stream(_tasks(["ok", "ok", "ok"])))
        finally:
            backend.close()
        assert outcomes == ["done-0", "done-1", "done-2"]
        batch = backend.ledger.build_report().batches[0]
        assert batch.attempts[0].kind == "node-lost"
        assert "exit code 23" in batch.attempts[0].cause
        assert batch.recovered
        assert backend.worker_respawns >= 1

    def test_shard_partition_at_boundary_recovers(self):
        backend = NodesBackend(
            _work, _ledger(), _node_plan("shard-partition", 1),
            n_nodes=2,
        )
        try:
            outcomes = list(backend.stream(_tasks(["ok", "ok", "ok"])))
        finally:
            backend.close()
        assert outcomes == ["done-0", "done-1", "done-2"]
        batch = backend.ledger.build_report().batches[0]
        assert batch.index == 1
        assert batch.attempts[0].kind == "shard-partition"
        assert "exit code 24" in batch.attempts[0].cause
        assert batch.recovered

    def test_poison_node_fault_quarantines(self):
        backend = NodesBackend(
            _work, _ledger(), _node_plan("node-lost", 0, attempts=None),
            n_nodes=2,
        )
        try:
            outcomes = list(backend.stream(_tasks(["ok", "ok"])))
        finally:
            backend.close()
        assert outcomes == [None, "done-1"]
        report = backend.ledger.build_report()
        assert report.n_quarantined == 1
        assert all(a.kind == "node-lost"
                   for a in report.batches[0].attempts)

    def test_worker_exception_is_a_plain_error(self):
        backend = NodesBackend(_work, _ledger(), n_nodes=2)
        try:
            outcomes = list(backend.stream(_tasks(["error", "ok"])))
        finally:
            backend.close()
        assert outcomes == ["done-0", "done-1"]
        batch = backend.ledger.build_report().batches[0]
        assert batch.attempts[0].kind == "error"
        assert "injected failure" in batch.attempts[0].cause
        assert backend.worker_respawns == 0  # the node survived

    def test_fail_fast_raises_poison(self):
        backend = NodesBackend(
            _work, _ledger("raise"),
            _node_plan("node-lost", 0, attempts=None), n_nodes=2,
        )
        try:
            with pytest.raises(PoisonBatchError, match="node-lost"):
                list(backend.stream(_tasks(["ok", "ok"])))
        finally:
            backend.close()


class TestReassignment:
    def test_exhausted_respawn_budget_reassigns_the_backlog(self):
        # Every attempt on batch 0 kills its node; with zero respawns
        # allowed the first loss abandons the shard and moves its
        # backlog to the survivor, which finishes everything.
        backend = NodesBackend(
            _work, _ledger(), _node_plan("shard-partition", 0),
            n_nodes=2, max_node_respawns=0,
        )
        backend.home_shards = [0, 0, 0, 1]
        try:
            outcomes = list(backend.stream(_tasks(["ok"] * 4)))
        finally:
            backend.close()
        assert outcomes == [f"done-{i}" for i in range(4)]
        report = backend.shard_report()
        assert report.n_reassignments >= 1
        assert all(r.shard == 0 and r.target == 1
                   for r in report.reassignments)

    def test_no_survivors_raises(self):
        # Every attempt on batch 0 kills the node running it.  One node
        # is lost at once; with two, the survivor takes the retry and
        # dies too, and the second abandonment finds no survivor.
        for n_nodes in (1, 2):
            backend = NodesBackend(
                _work, _ledger(),
                _node_plan("shard-partition", 0, attempts=None),
                n_nodes=n_nodes, max_node_respawns=0,
            )
            try:
                with pytest.raises(ResilienceError,
                                   match="every node is lost"):
                    list(backend.stream(_tasks(["ok", "ok"])))
            finally:
                backend.close()


class TestInterruption:
    def test_completed_unyielded_after_partial_consumption(self):
        backend = NodesBackend(_work, _ledger(), n_nodes=2)
        stream = backend.stream(_tasks(["slow", "ok", "ok"]))
        try:
            # Task 0 is slow, so later results land before it yields;
            # close the stream mid-flight and flush what completed.
            first = next(stream)
            assert first == "done-0"
        finally:
            stream.close()
            backend.close()
        flushed = backend.completed_unyielded()
        assert all(isinstance(tid, int) for tid, _v in flushed)
        assert all(v.startswith("done-") for _tid, v in flushed)


class TestShardReport:
    def test_to_dict_round_trips_the_counts(self):
        report = ShardReport(
            n_shards=2,
            assignments=(0, 1, 0),
            steals=(StealEvent(1, 0, 2),),
            reassignments=(ReassignEvent(0, 1, 2),),
            node_respawns=3,
        )
        assert report.n_steals == 1
        assert report.n_reassignments == 1
        payload = report.to_dict()
        assert payload["n_shards"] == 2
        assert payload["steals"] == [
            {"thief": 1, "victim": 0, "task_index": 2}
        ]
        assert payload["reassignments"] == [
            {"shard": 0, "target": 1, "task_index": 2}
        ]
        assert payload["node_respawns"] == 3

