"""Unit tests for the serving daemon's pure machinery.

Everything here runs against injected fake clocks and in-memory
runners — no sockets, no sweeps — so the breaker state machine, the
coalescer's single-dispatch guarantee, the journal's torn-tail
tolerance, and the queue's deadline/drain semantics are pinned at the
state-machine level.  The HTTP layer is covered end-to-end in
``test_serve_http.py``.
"""

import json
import os
import sys
import threading

import pytest

from repro.errors import ConfigError, ServeError, SweepCancelledError
from repro.serve.breaker import BREAKER_STATES, BackendLadder, CircuitBreaker
from repro.serve.coalesce import Coalescer, sweep_request_key
from repro.serve.journal import TERMINAL_STATES, JobJournal
from repro.serve.limits import TokenBucket
from repro.serve.queue import Job, JobQueue, QueueFull


class FakeClock:
    """A hand-advanced monotonic clock."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, clock, threshold=3, cooldown=30.0, probes=2):
        return CircuitBreaker("pool", failure_threshold=threshold,
                              cooldown_s=cooldown, probe_budget=probes,
                              clock=clock)

    def test_state_catalog(self):
        assert BREAKER_STATES == ("closed", "open", "half-open")

    def test_closed_allows_and_counts_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_full_transition_cycle_closed_open_halfopen_closed(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.99)
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(0.02)
        assert breaker.state == "half-open"
        assert breaker.allow()          # consumes one probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_halfopen_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half-open"

    def test_probe_budget_exhaustion_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, cooldown=5.0, probes=2)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow() and breaker.allow()   # spend the budget
        assert not breaker.allow()                   # third probe refused
        assert breaker.state == "open"               # ...and re-opened
        assert breaker.n_opens == 2

    def test_describe_is_json_ready(self):
        breaker = self.make(FakeClock())
        snapshot = breaker.describe()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["backend"] == "pool"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            self.make(FakeClock(), threshold=0)
        with pytest.raises(ConfigError):
            self.make(FakeClock(), probes=0)
        with pytest.raises(ConfigError):
            self.make(FakeClock(), cooldown=-1.0)


class TestBackendLadder:
    def test_ladder_shapes(self):
        ladder = BackendLadder(clock=FakeClock())
        assert ladder.ladder_for("nodes") == ("nodes", "serial")
        assert ladder.ladder_for("pool") == ("pool", "serial")
        assert ladder.ladder_for("auto") == ("pool", "serial")
        assert ladder.ladder_for("serial") == ("serial",)
        with pytest.raises(ConfigError):
            ladder.ladder_for("quantum")

    def test_open_rung_is_skipped_but_floor_never_is(self):
        clock = FakeClock()
        ladder = BackendLadder(failure_threshold=1, cooldown_s=60.0,
                               clock=clock)
        assert ladder.rungs_for("pool") == ["pool", "serial"]
        ladder.record("pool", ok=False)
        assert ladder.rungs_for("pool") == ["serial"]
        # serial cannot be broken away even when it fails
        for _ in range(5):
            ladder.record("serial", ok=False)
        assert ladder.rungs_for("serial") == ["serial"]

    def test_recovery_via_halfopen_probe(self):
        clock = FakeClock()
        ladder = BackendLadder(failure_threshold=1, cooldown_s=10.0,
                               probe_budget=1, clock=clock)
        ladder.record("pool", ok=False)
        assert ladder.rungs_for("pool") == ["serial"]
        clock.advance(10.0)
        assert ladder.rungs_for("pool") == ["pool", "serial"]  # probe
        ladder.record("pool", ok=True)
        assert ladder.breakers["pool"].state == "closed"

    def test_record_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            BackendLadder(clock=FakeClock()).record("quantum", ok=True)


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_rate_limited_with_retry_hint(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_acquire("ci") == 0.0
        assert bucket.try_acquire("ci") == 0.0
        wait = bucket.try_acquire("ci")
        assert wait == pytest.approx(1.0)
        clock.advance(wait)
        assert bucket.try_acquire("ci") == 0.0
        assert bucket.rejected == 1

    def test_keys_are_independent(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.try_acquire("a") == 0.0
        assert bucket.try_acquire("a") > 0.0
        assert bucket.try_acquire("b") == 0.0

    def test_eviction_bounds_client_memory(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock,
                             max_clients=2)
        bucket.try_acquire("a")
        clock.advance(1.0)
        bucket.try_acquire("b")
        clock.advance(1.0)
        bucket.try_acquire("c")     # evicts "a", the longest-untouched
        assert bucket.describe()["clients"] == 2
        # the evicted key restarts with a full burst (client's favor)
        assert bucket.tokens("a") == 1.0

    def test_invalid_parameters_rejected(self):
        for kwargs in ({"rate": 0.0, "burst": 1},
                       {"rate": 1.0, "burst": 0},
                       {"rate": 1.0, "burst": 1, "max_clients": 0}):
            with pytest.raises(ConfigError):
                TokenBucket(clock=FakeClock(), **kwargs)


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_identical_keys_share_one_factory_call(self):
        coalescer = Coalescer()
        calls = []

        def factory():
            calls.append(1)
            return object()

        job, created = coalescer.get_or_create("k", factory)
        again, created2 = coalescer.get_or_create("k", factory)
        assert created and not created2
        assert again is job and len(calls) == 1
        assert coalescer.describe() == {
            "inflight_keys": 1, "coalesced": 1, "created": 1,
        }

    def test_n_concurrent_requests_one_dispatch(self):
        """The airtight guarantee: N racing identical requests produce
        exactly one factory call, and all N see the same job."""
        coalescer = Coalescer()
        barrier = threading.Barrier(8)
        dispatches = []
        seen = []

        def factory():
            dispatches.append(threading.get_ident())
            return object()

        def client():
            barrier.wait()
            job, _created = coalescer.get_or_create("grid", factory)
            seen.append(job)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(dispatches) == 1
        assert len(seen) == 8 and len(set(map(id, seen))) == 1

    def test_release_frees_the_key_idempotently(self):
        coalescer = Coalescer()
        job, _ = coalescer.get_or_create("k", object)
        coalescer.release("k", job)
        coalescer.release("k", job)      # idempotent
        assert coalescer.inflight() == 0
        newer, created = coalescer.get_or_create("k", object)
        coalescer.release("k", job)      # stale release: newer job kept
        assert created and coalescer.inflight() == 1

    def test_factory_failure_leaves_no_residue(self):
        coalescer = Coalescer()

        def explode():
            raise ServeError("no capacity")

        with pytest.raises(ServeError):
            coalescer.get_or_create("k", explode)
        assert coalescer.inflight() == 0
        _job, created = coalescer.get_or_create("k", object)
        assert created

    def test_request_key_separates_plans_and_knobs(self):
        from repro.core.sweep import SweepPlan

        plan_a = SweepPlan(arch="milan", workload_names=("cg",),
                           scale="small", repetitions=2, inputs_limit=1)
        plan_b = SweepPlan(arch="milan", workload_names=("ep",),
                           scale="small", repetitions=2, inputs_limit=1)
        knobs = {"backend": "auto", "n_processes": 1,
                 "fail_policy": "degrade"}

        def key_of(plan, **changes):
            return sweep_request_key(plan, **{**knobs, **changes})

        key = key_of(plan_a)
        assert key == key_of(plan_a)                      # deterministic
        assert len(key) == 64 and int(key, 16) >= 0       # hex digest
        assert key != key_of(plan_b)
        assert key != key_of(plan_a, backend="pool")
        assert key != key_of(plan_a, n_processes=2)
        assert key != key_of(plan_a, fail_policy="raise")
        with pytest.raises(TypeError):                    # no defaults
            sweep_request_key(plan_a)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJobJournal:
    def test_submit_state_fold(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.submit("j000001", {"plan": {"arch": "milan"}},
                       coalesce_key="k1", client="ci")
        journal.state("j000001", "running")
        journal.submit("j000002", {"plan": {"arch": "a64fx"}})
        journal.state("j000001", "done")
        views = journal.replay()
        assert views["j000001"]["state"] == "done"
        assert views["j000001"]["coalesce_key"] == "k1"
        assert views["j000002"]["state"] == "queued"
        assert [v["id"] for v in journal.unfinished()] == ["j000002"]
        assert journal.next_job_number() == 3

    def test_terminal_states_are_not_resumed(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        for n, state in enumerate(TERMINAL_STATES, start=1):
            job_id = f"j{n:06d}"
            journal.submit(job_id, {})
            journal.state(job_id, state)
        journal.submit("j000009", {})
        journal.state("j000009", "interrupted")
        assert [v["id"] for v in journal.unfinished()] == ["j000009"]

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal = JobJournal(path)
        journal.submit("j000001", {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "state", "id": "j000001", "sta')
        views = journal.replay()
        assert views["j000001"]["state"] == "queued"
        assert journal.corrupt_lines == 0     # a tear is not corruption

    def test_unterminated_but_parseable_tail_is_kept(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal = JobJournal(path)
        journal.submit("j000001", {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"op": "state", "id": "j000001", "state": "running"}
            ))  # no trailing newline: torn between payload and "\n"
        assert journal.replay()["j000001"]["state"] == "running"

    def test_interior_corruption_is_counted(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal = JobJournal(path)
        journal.submit("j000001", {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("NOT JSON\n")
        journal.submit("j000002", {})
        views = journal.replay()
        assert set(views) == {"j000001", "j000002"}
        assert journal.corrupt_lines == 1

    def test_missing_file_is_empty_history(self, tmp_path):
        journal = JobJournal(tmp_path / "absent.journal")
        assert journal.replay() == {}
        assert journal.next_job_number() == 1


# ----------------------------------------------------------------------
# Job queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def drain_safe(self, queue):
        queue.drain(grace_s=0.0)

    def test_job_runs_and_settles_done(self):
        ran = []
        queue = JobQueue(lambda job: ran.append(job.id), workers=1)
        queue.start()
        try:
            job = Job("j000001", {})
            queue.submit(job)
            assert job.done_event.wait(5.0)
            assert job.state == "done" and ran == ["j000001"]
        finally:
            self.drain_safe(queue)

    def test_runner_exception_settles_failed(self):
        def runner(job):
            raise ValueError("boom")

        queue = JobQueue(runner, workers=1)
        queue.start()
        try:
            job = Job("j000001", {})
            queue.submit(job)
            assert job.done_event.wait(5.0)
            assert job.state == "failed" and "boom" in job.error
        finally:
            self.drain_safe(queue)

    def test_capacity_rejection_carries_retry_hint(self):
        queue = JobQueue(lambda job: None, max_queued=1, workers=1,
                         retry_after_s=2.5)
        # not started: nothing consumes the queue
        queue.submit(Job("j000001", {}))
        with pytest.raises(QueueFull) as err:
            queue.submit(Job("j000002", {}))
        assert err.value.retry_after_s == 2.5
        assert queue.n_rejected_full == 1
        queue.stop()

    def test_duplicate_id_rejected(self):
        queue = JobQueue(lambda job: None, workers=1)
        queue.submit(Job("j000001", {}))
        with pytest.raises(ServeError):
            queue.submit(Job("j000001", {}))
        queue.stop()

    def test_deadline_expires_a_cooperative_runner(self):
        def runner(job):
            if job.cancel_event.wait(10.0):
                raise SweepCancelledError("observed cancel")

        queue = JobQueue(runner, workers=1)
        queue.start()
        try:
            job = Job("j000001", {}, deadline_s=0.05)
            queue.submit(job)
            assert job.done_event.wait(5.0)
            assert job.state == "expired" and job.deadline_hit
        finally:
            self.drain_safe(queue)

    def test_client_cancel_before_run(self):
        release = threading.Event()

        def runner(job):
            release.wait(10.0)

        queue = JobQueue(runner, workers=1)
        queue.start()
        try:
            blocker = Job("j000001", {})
            queued = Job("j000002", {})
            queue.submit(blocker)
            queue.submit(queued)
            assert queue.cancel("j000002")
            release.set()
            assert queued.done_event.wait(5.0)
            assert queued.state == "cancelled"
            assert not queue.cancel("j000002")   # already settled
            assert not queue.cancel("missing")
        finally:
            self.drain_safe(queue)

    def test_drain_interrupts_queued_and_running(self):
        started = threading.Event()

        def runner(job):
            started.set()
            if job.cancel_event.wait(10.0):
                raise SweepCancelledError("drained mid-run")

        queue = JobQueue(runner, workers=1)
        queue.start()
        running = Job("j000001", {})
        waiting = Job("j000002", {})
        queue.submit(running)
        queue.submit(waiting)
        assert started.wait(5.0)
        interrupted = queue.drain(grace_s=0.05)
        assert interrupted == ["j000001", "j000002"]
        assert running.state == waiting.state == "interrupted"
        with pytest.raises(ServeError):
            queue.submit(Job("j000003", {}))

    def test_drain_grace_lets_fast_work_finish(self):
        def runner(job):
            job.cancel_event.wait(0.05)

        queue = JobQueue(runner, workers=1)
        queue.start()
        job = Job("j000001", {})
        queue.submit(job)
        interrupted = queue.drain(grace_s=5.0)
        assert interrupted == [] and job.state == "done"

    def test_journal_records_the_lifecycle(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        queue = JobQueue(lambda job: None, workers=1, journal=journal)
        queue.start()
        try:
            job = Job("j000001", {"plan": {}}, coalesce_key="k")
            queue.submit(job)
            assert job.done_event.wait(5.0)
        finally:
            self.drain_safe(queue)
        assert journal.replay()["j000001"]["state"] == "done"

    def test_events_are_sequenced(self):
        job = Job("j000001", {})
        job.add_event({"batches_done": 1})
        job.add_event({"batches_done": 2})
        assert [e["seq"] for e in job.events] == [0, 1]
        assert job.events_since(1) == [{"seq": 1, "batches_done": 2}]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServeError):
            JobQueue(lambda job: None, max_queued=0)
        with pytest.raises(ServeError):
            JobQueue(lambda job: None, workers=0)


class TestJobDoneCallback:
    def test_fires_exactly_once_on_settle(self):
        release = threading.Event()
        queue = JobQueue(lambda job: release.wait(10.0), workers=1)
        queue.start()
        try:
            job = Job("j000001", {})
            fired = []
            job.add_done_callback(fired.append)
            queue.submit(job)
            assert fired == []
            release.set()
            assert job.done_event.wait(5.0)
            assert fired == [job]
            queue._settle(job, "failed")  # a settled job stays settled
            assert fired == [job] and job.state == "done"
        finally:
            queue.drain(grace_s=0.0)

    def test_registered_after_settle_fires_immediately(self):
        queue = JobQueue(lambda job: None, workers=1)
        job = Job("j000001", {})
        queue._settle(job, "cancelled")
        fired = []
        job.add_done_callback(fired.append)
        assert fired == [job]

    def test_registration_racing_settle_never_loses_a_wakeup(self):
        class YieldingEvent(threading.Event):
            """Hands the interpreter to the settling thread right after
            every ``is_set`` check: the moment a wake-up would be lost
            if registration checked outside the job's lock."""

            def is_set(self):
                result = super().is_set()
                os.sched_yield()
                return result

        queue = JobQueue(lambda job: None, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads finely
        try:
            for n in range(200):
                job = Job(f"j{n:06d}", {})
                job.done_event = YieldingEvent()
                fired = []
                start = threading.Barrier(2, timeout=5.0)

                def settle(job=job, start=start):
                    start.wait()
                    queue._settle(job, "done")

                settler = threading.Thread(target=settle)
                settler.start()
                start.wait()
                for hook in range(50):  # registrations straddle the settle
                    job.add_done_callback(lambda _job, h=hook: fired.append(h))
                settler.join(5.0)
                assert not settler.is_alive()
                assert sorted(fired) == list(range(50)), f"iteration {n}"
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# GET /jobs/<id>/records body
# ----------------------------------------------------------------------
#: EnvConfig fields in record-payload order.
_PAYLOAD_CONFIG_FIELDS = ("num_threads", "places", "proc_bind", "schedule",
                          "library", "blocktime", "force_reduction",
                          "align_alloc")


def _rowwise_records_payload(records) -> dict:
    """Row-wise oracle of ``records_payload``: one dict per decoded
    ``SweepRecord``, as the records body was built before it rendered
    from block columns."""
    return {
        "n_records": len(records),
        "records": [
            {
                "arch": r.arch,
                "app": r.app,
                "suite": r.suite,
                "input_size": r.input_size,
                "num_threads": r.num_threads,
                "config": {f: getattr(r.config, f)
                           for f in _PAYLOAD_CONFIG_FIELDS},
                "runtimes": list(r.runtimes),
            }
            for r in records
        ],
    }


class TestRecordsPayload:
    @pytest.mark.parametrize("plan", [
        {"arch": "milan", "repetitions": 3},
        {"arch": "skylake", "repetitions": 3},
        {"arch": "a64fx", "repetitions": 3},
        # One repetition: runtimes is a width-1 (scalar-cell) column.
        {"arch": "milan", "repetitions": 1, "workload_names": ("cg",)},
    ], ids=["milan", "skylake", "a64fx", "milan-1rep"])
    def test_column_render_is_byte_equal_to_the_row_oracle(self, plan):
        from repro.core.sweep import SweepPlan, run_sweep
        from repro.serve.render import records_payload

        result = run_sweep(SweepPlan(scale="small", seed=0, **plan))
        payload = records_payload(result.block)
        # Unset alignment occurs, or its None mapping is untested here.
        assert any(r["config"]["align_alloc"] is None
                   for r in payload["records"])
        assert json.dumps(payload) == json.dumps(
            _rowwise_records_payload(result.records))

    def test_unset_config_threads_render_as_none(self):
        # Sweep grids always set num_threads; a hand-built record does not.
        from repro.core.sweep import SweepRecord, sweep_records_to_block
        from repro.runtime.icv import EnvConfig
        from repro.serve.render import records_payload

        records = [SweepRecord("milan", "cg", "npb", "S", 96,
                               EnvConfig(align_alloc=64), (1.5, 2.5))]
        payload = records_payload(sweep_records_to_block(records))
        assert payload["records"][0]["config"]["num_threads"] is None
        assert json.dumps(payload) == json.dumps(
            _rowwise_records_payload(records))

    def test_empty_block_renders_no_records(self):
        from repro.core.sweep import sweep_block_schema
        from repro.frame.columns import RecordBlock
        from repro.serve.render import records_payload

        block = RecordBlock(sweep_block_schema(3))
        assert records_payload(block) == {"n_records": 0, "records": []}
