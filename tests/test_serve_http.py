"""End-to-end HTTP tests for the tuning daemon.

Each test talks to a real :class:`~repro.serve.app.TuningDaemon` over a
real socket via the in-process harness — the same daemon object
``repro-omp serve`` runs.  A module-scoped daemon with a shared cache
keeps the suite fast (the first sweep computes, the rest hit cache);
behaviors that need special tuning (tight deadlines, tiny rate limits,
full queues) get their own short-lived daemons.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.core.sweep import SweepPlan, run_sweep
from repro.errors import DatasetError
from repro.serve.app import DaemonConfig, TuningDaemon
from repro.serve.harness import DaemonHandle
from repro.serve.limits import wall_clock
from repro.serve.queue import Job, JobQueue
from repro.serve.render import records_payload, recommend_payload

#: The one plan every test serves (single batch; cache-warm after the
#: first computation).
PLAN_PAYLOAD = {
    "arch": "milan",
    "workloads": ["nqueens"],
    "scale": "small",
    "repetitions": 2,
    "inputs_limit": 1,
}
PLAN = SweepPlan(arch="milan", workload_names=("nqueens",), scale="small",
                 repetitions=2, inputs_limit=1)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-http")
    handle = DaemonHandle(DaemonConfig(
        cache_dir=str(root / "cache"),
        state_dir=str(root / "state"),
        deadline_s=300.0,
        max_inflight=2,
    ))
    yield handle
    handle.drain()


@pytest.fixture(scope="module")
def truth():
    return records_payload(run_sweep(PLAN).block)


def submit(handle, **overrides):
    body = {"plan": PLAN_PAYLOAD, "client": "tests", **overrides}
    return handle.request("POST", "/sweep", body=body)


class TestHealth:
    def test_healthz_snapshot(self, daemon):
        status, body = daemon.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        for section in ("queue", "breakers", "limiter", "coalescer",
                        "cache"):
            assert section in body
        assert [b["backend"] for b in body["breakers"]] == [
            "nodes", "pool", "serial",
        ]

    def test_readyz_when_accepting(self, daemon):
        assert daemon.request("GET", "/readyz") == (200, {"ready": True})


class TestSweepLifecycle:
    def test_served_records_match_direct_run_sweep(self, daemon, truth):
        status, resp = submit(daemon)
        assert status == 202 and resp["state"] in ("queued", "running")
        final = daemon.wait_for_state(
            resp["job_id"], ("done", "failed"), timeout_s=300.0
        )
        assert final["state"] == "done"
        assert final["backend_requested"] == "serial"
        assert final["backend_used"] == "serial"
        assert final["degraded"] is False
        status, served = daemon.request(
            "GET", f"/jobs/{resp['job_id']}/records"
        )
        assert status == 200 and served == truth

    def test_records_conflict_before_done(self, daemon):
        status, resp = submit(daemon, throttle_s=0.3)
        job_id = resp["job_id"]
        status, body = daemon.request("GET", f"/jobs/{job_id}/records")
        assert status in (200, 409)   # 409 unless it already finished
        daemon.wait_for_state(job_id, ("done",), timeout_s=300.0)

    def test_events_stream_ends_with_final_state(self, daemon):
        status, resp = submit(daemon)
        events = daemon.stream_events(resp["job_id"], timeout=300.0)
        assert events[-1] == {"state": "done", "final": True}
        progress = [e for e in events if "batches_done" in e]
        for event in progress:
            assert event["backend"] == "serial"

    def test_unknown_job_404(self, daemon):
        assert daemon.request("GET", "/jobs/j999999")[0] == 404

    def test_cancel_settled_job_conflicts(self, daemon):
        status, resp = submit(daemon)
        daemon.wait_for_state(resp["job_id"], ("done",), timeout_s=300.0)
        status, body = daemon.request(
            "POST", f"/jobs/{resp['job_id']}/cancel"
        )
        assert status == 409


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_job(
        self, daemon, truth
    ):
        barrier = threading.Barrier(6)
        responses = []

        def client():
            barrier.wait()
            responses.append(submit(daemon, throttle_s=0.2))

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(status == 202 for status, _body in responses)
        job_ids = {body["job_id"] for _status, body in responses}
        assert len(job_ids) == 1
        coalesced = [b for _s, b in responses if b["coalesced"]]
        assert len(coalesced) == len(responses) - 1
        job_id = job_ids.pop()
        daemon.wait_for_state(job_id, ("done",), timeout_s=300.0)
        # every requester polls the same id and reads identical bodies
        bodies = [
            daemon.request("GET", f"/jobs/{job_id}/records")[1]
            for _ in responses
        ]
        assert all(body == truth for body in bodies)

    def test_different_knobs_do_not_coalesce(self, daemon):
        status_a, a = submit(daemon, throttle_s=0.2)
        status_b, b = submit(daemon, throttle_s=0.2, fail_policy="degrade")
        assert a["job_id"] != b["job_id"]
        daemon.wait_for_state(a["job_id"], ("done",), timeout_s=300.0)
        daemon.wait_for_state(b["job_id"], ("done",), timeout_s=300.0)


class TestRecommend:
    def test_recommendations_from_served_sweep(self, daemon):
        status, body = daemon.request(
            "GET",
            "/recommend?arch=milan&workload=nqueens&scale=small"
            "&repetitions=2&inputs_limit=1&deadline_s=300",
            timeout=300.0,
        )
        assert status == 200
        assert body["n_recommendations"] == len(body["recommendations"])
        for rec in body["recommendations"]:
            assert rec["app"] == "nqueens" and rec["lift"] >= 1.3
        assert body["job"]["state"] == "done"

    def test_missing_arch_is_400(self, daemon):
        assert daemon.request("GET", "/recommend")[0] == 400

    def test_deadline_maps_to_504_with_job_id(self, tmp_path):
        handle = DaemonHandle(DaemonConfig(
            cache_dir=str(tmp_path / "cache"),
            state_dir=str(tmp_path / "state"),
            max_inflight=1,
        ))
        try:
            # wedge the only worker so the recommend job stays queued
            # past its (tiny) request deadline
            status, blocker = submit(handle, throttle_s=0.5)
            assert status == 202
            status, body = handle.request(
                "GET",
                "/recommend?arch=milan&workload=cg&scale=small"
                "&repetitions=2&inputs_limit=1&deadline_s=0.05",
                timeout=60.0,
            )
            assert status == 504 and body["job_id"].startswith("j")
            # the job was NOT cancelled: it finishes and warms the cache
            handle.wait_for_state(
                body["job_id"], ("done",), timeout_s=300.0
            )
        finally:
            handle.drain()


    def test_settling_after_the_loop_closed_does_not_raise(self):
        # A job can settle after a drained daemon's loop has closed; the
        # waiter's completion hook must not raise in the worker thread.
        job = Job("j000001", {})
        daemon = TuningDaemon(DaemonConfig())
        loop = asyncio.new_event_loop()

        async def register():
            return daemon._settled(job)

        waiter = loop.run_until_complete(register())
        loop.close()
        JobQueue(lambda job: None)._settle(job, "interrupted")
        assert job.done_event.is_set() and not waiter.done()


#: A ``/recommend`` whose plan differs from ``PLAN_PAYLOAD`` (3
#: repetitions), so its job never coalesces onto a wedging sweep.
QUEUED = ("/recommend?arch=milan&workload=nqueens&scale=small"
          "&repetitions=3&inputs_limit=1&deadline_s=300")


def wait_until(predicate, timeout_s=60.0):
    """Poll ``predicate`` until it holds (a wait, not an assertion)."""
    deadline = wall_clock() + timeout_s
    while not predicate():
        assert wall_clock() < deadline, "condition not reached in time"
        threading.Event().wait(0.01)


class Held:
    """A daemon computation held at ``gate``: ``park`` wraps the settle
    wait (recording each ``/recommend`` in the loop step that starts
    its wait), ``arrive`` wraps the shared step (recording each request
    as it looks up the in-flight map, in the same loop step), ``run``
    stands in for ``_recommendations``."""

    def __init__(self, daemon):
        self.settled = daemon._settled
        self.shared = daemon._shared_recommendations
        self.compute = TuningDaemon._recommendations
        self.parked, self.arrived, self.calls = [], [], []
        self.gate = threading.Event()

    def park(self, job):
        self.parked.append(job.id)
        return self.settled(job)

    async def arrive(self, job, quantile, min_lift):
        self.arrived.append(quantile)
        return await self.shared(job, quantile, min_lift)

    def run(self, result, quantile, min_lift):
        self.calls.append((quantile, min_lift))
        self.gate.wait(60.0)
        return self.compute(result, quantile, min_lift)


class TestSharedRecommendation:
    """Coalesced ``/recommend`` waiters share one computation.

    Each round wedges the only worker with a throttled sweep, parks the
    requests on one queued job, and only then cancels the wedge.  The
    computation is held until every request has reached the shared
    step, so the followers meet it in flight without depending on
    timing."""

    @pytest.fixture(scope="class")
    def handle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve-shared")
        handle = DaemonHandle(DaemonConfig(
            cache_dir=str(root / "cache"), deadline_s=300.0,
            max_inflight=1,
        ))
        yield handle
        handle.drain()

    @pytest.fixture
    def held(self, handle, monkeypatch):
        """Route the daemon's computation through ``held.compute``
        (default: the real one), counting calls in ``held.calls``, each
        request parked on its job in ``held.parked`` and each reaching
        the shared step in ``held.arrived``."""
        held = Held(handle.daemon)
        monkeypatch.setattr(handle.daemon, "_settled", held.park)
        monkeypatch.setattr(handle.daemon, "_shared_recommendations",
                            held.arrive)
        monkeypatch.setattr(handle.daemon, "_recommendations", held.run)
        return held

    def wedge(self, handle):
        status, blocker = submit(handle, throttle_s=120.0)
        assert status == 202
        return blocker["job_id"]

    def release(self, handle, blocker_id, held, n_requests):
        """Free the worker, then the computation once all
        ``n_requests`` reached the shared step."""
        status, _body = handle.request("POST", f"/jobs/{blocker_id}/cancel")
        assert status in (202, 409)
        wait_until(lambda: len(held.arrived) == n_requests)
        held.gate.set()

    def coalesced_round(self, handle, held, paths):
        """Send ``paths`` as concurrent requests onto one queued job;
        their ``(status, body)`` pairs in order."""
        blocker_id = self.wedge(handle)
        responses = [None] * len(paths)

        def client(i):
            responses[i] = handle.request("GET", paths[i], timeout=300.0)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(paths))]
        for t in threads:
            t.start()
        wait_until(lambda: len(held.parked) == len(paths))
        self.release(handle, blocker_id, held, len(paths))
        for t in threads:
            t.join()
        return responses

    def unshared(self, handle, job_id, quantile, min_lift=1.3):
        result = handle.daemon.queue.get(job_id).result
        settings = TuningDaemon._recommendations(result, quantile, min_lift)
        return recommend_payload(settings, quantile,
                                 min_lift)["recommendations"]

    def test_identical_requests_compute_once(self, handle, held):
        (s1, a), (s2, b) = self.coalesced_round(handle, held, [QUEUED] * 2)
        assert s1 == s2 == 200
        assert a["job"]["job_id"] == b["job"]["job_id"]
        assert held.calls == [(0.05, 1.3)]
        assert a["recommendations"] == b["recommendations"]
        assert a["recommendations"] == self.unshared(
            handle, a["job"]["job_id"], 0.05
        )
        assert handle.daemon._answers == {}

    def test_coalesced_waiters_wake_together(self, handle, held):
        # No gate: the computation on this 1-input plan may finish at
        # once, so the second waiter shares it only if both waiters of
        # the settling job wake in the same loop iteration.
        held.gate.set()
        for _round in range(8):
            for log in (held.parked, held.arrived, held.calls):
                log.clear()
            responses = self.coalesced_round(handle, held, [QUEUED] * 2)
            assert [status for status, _body in responses] == [200, 200]
            assert held.calls == [(0.05, 1.3)]
        assert handle.daemon._answers == {}
        assert handle.daemon._settles == {}

    def test_different_quantile_computes_separately(self, handle, held):
        (s1, a), (s2, b) = self.coalesced_round(
            handle, held, [QUEUED, QUEUED + "&quantile=0.25"]
        )
        assert s1 == s2 == 200
        job_id = a["job"]["job_id"]
        assert b["job"]["job_id"] == job_id
        assert sorted(held.calls) == [(0.05, 1.3), (0.25, 1.3)]
        assert a["recommendations"] == self.unshared(handle, job_id, 0.05)
        assert b["recommendations"] == self.unshared(handle, job_id, 0.25)
        assert handle.daemon._answers == {}

    def test_error_reaches_every_waiter(self, handle, held):
        def broken(result, quantile, min_lift):
            raise DatasetError("no sweep records to tabulate")

        held.compute = broken
        (s1, a), (s2, b) = self.coalesced_round(handle, held, [QUEUED] * 2)
        assert held.calls == [(0.05, 1.3)]
        assert s1 == s2 == 500
        assert a == b == {
            "error": "DatasetError: no sweep records to tabulate"
        }
        assert handle.daemon._answers == {}

    def test_follower_answered_after_first_requester_leaves(
        self, handle, held
    ):
        blocker_id = self.wedge(handle)
        first = socket.create_connection(("127.0.0.1", handle.port),
                                         timeout=30.0)
        try:
            first.sendall(f"GET {QUEUED} HTTP/1.1\r\n"
                          "Host: localhost\r\n\r\n".encode("ascii"))
            wait_until(lambda: len(held.parked) == 1)
            follower = []
            thread = threading.Thread(target=lambda: follower.append(
                handle.request("GET", QUEUED, timeout=300.0)
            ))
            thread.start()
            wait_until(lambda: len(held.parked) == 2)
        finally:
            first.close()
        self.release(handle, blocker_id, held, 2)
        thread.join()
        ((status, body),) = follower
        assert status == 200
        assert body["recommendations"] == self.unshared(
            handle, body["job"]["job_id"], 0.05
        )
        assert held.calls == [(0.05, 1.3)]
        assert handle.daemon._answers == {}

    def test_cancelled_waiter_leaves_the_answer_to_the_others(self):
        # asyncio level: cancelling one waiter mid-computation (what a
        # torn-down request task sees) must not cancel the shared task.
        daemon = TuningDaemon(DaemonConfig())
        job = Job("j000001", {})
        job.result = "result"
        entered, release = threading.Event(), threading.Event()
        calls = []

        def slow(result, quantile, min_lift):
            calls.append(result)
            entered.set()
            release.wait(60.0)
            return [{"from": result}]

        daemon._recommendations = slow

        async def scenario():
            first = asyncio.create_task(
                daemon._shared_recommendations(job, 0.05, 1.3))
            second = asyncio.create_task(
                daemon._shared_recommendations(job, 0.05, 1.3))
            await asyncio.to_thread(entered.wait, 60.0)
            first.cancel()
            release.set()
            answer = await second
            with pytest.raises(asyncio.CancelledError):
                await first
            return answer

        assert asyncio.run(scenario()) == [{"from": "result"}]
        assert calls == ["result"]
        assert daemon._answers == {}


class TestAdmission:
    def test_rate_limit_429_with_retry_hint(self, tmp_path):
        handle = DaemonHandle(DaemonConfig(
            cache_dir=str(tmp_path / "cache"), rate_per_s=0.5, burst=1,
        ))
        try:
            assert submit(handle, throttle_s=0.2)[0] == 202
            status, body = submit(handle)
            assert status == 429
            assert body["retry_after_s"] > 0.0
            # an unrelated client key is not throttled
            status, body = handle.request("POST", "/sweep", body={
                "plan": PLAN_PAYLOAD, "client": "other",
            })
            assert status == 202
        finally:
            handle.drain()

    def test_queue_capacity_429(self, tmp_path):
        handle = DaemonHandle(DaemonConfig(
            cache_dir=str(tmp_path / "cache"),
            max_inflight=1, max_queued=1,
        ))
        try:
            # distinct plans so coalescing cannot absorb the overflow
            submissions = []
            for seed in range(4):
                payload = {**PLAN_PAYLOAD, "seed": seed}
                submissions.append(handle.request("POST", "/sweep", body={
                    "plan": payload, "client": "flood",
                    "throttle_s": 0.5,
                }))
            statuses = [status for status, _body in submissions]
            assert 429 in statuses
            rejected = [body for status, body in submissions
                        if status == 429]
            assert all("capacity" in body["error"] for body in rejected)
        finally:
            handle.drain()

    def test_deadline_expires_served_sweep(self, tmp_path):
        handle = DaemonHandle(DaemonConfig(
            cache_dir=str(tmp_path / "cache"),
        ))
        try:
            # a multi-batch plan: the deadline is observed cooperatively
            # *between* batches, so a single-batch sweep would finish
            multi = {**PLAN_PAYLOAD, "workloads": ["nqueens", "cg"],
                     "inputs_limit": 2}
            status, resp = handle.request("POST", "/sweep", body={
                "plan": multi, "client": "tests",
                "throttle_s": 0.3, "deadline_s": 0.05,
            })
            assert status == 202
            final = handle.wait_for_state(
                resp["job_id"], ("expired",), timeout_s=60.0
            )
            assert final["state"] == "expired"
        finally:
            handle.drain()


class TestProtocolEdges:
    def test_slow_client_shed_with_408(self, daemon):
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=30.0
        ) as sock:
            sock.sendall(b"POST /sweep HTTP/1.1\r\n")   # ...and stall
            sock.settimeout(30.0)
            raw = sock.recv(4096)
        assert b"408" in raw.split(b"\r\n", 1)[0]

    def test_malformed_json_400(self, daemon):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=30.0
        )
        try:
            conn.request("POST", "/sweep", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            conn.close()

    def test_non_object_body_400(self, daemon):
        status, body = daemon.request("POST", "/sweep", body=[1, 2])
        assert status == 400

    def test_unknown_route_404(self, daemon):
        assert daemon.request("GET", "/nope")[0] == 404

    def test_wrong_method_404(self, daemon):
        assert daemon.request("DELETE", "/sweep")[0] == 404

    def test_oversized_body_413(self, tmp_path):
        handle = DaemonHandle(DaemonConfig(body_limit=64))
        try:
            status, _body = handle.request("POST", "/sweep", body={
                "plan": PLAN_PAYLOAD, "pad": "x" * 256,
            })
            assert status == 413
        finally:
            handle.drain()

    def test_unknown_plan_field_400(self, daemon):
        status, body = daemon.request("POST", "/sweep", body={
            "plan": {**PLAN_PAYLOAD, "turbo": True},
        })
        assert status == 400 and "turbo" in body["error"]


#: The ``/recommend`` query for ``PLAN``.
RECOMMEND = ("/recommend?arch=milan&workload=nqueens&scale=small"
             "&repetitions=2&inputs_limit=1")


class TestParameterValidation:
    """Bad numeric knobs are a 400 before admission: no job is made."""

    def submitted(self, daemon):
        return daemon.request("GET", "/healthz")[1]["queue"]["submitted"]

    @pytest.mark.parametrize("name,value", [
        ("quantile", "nan"), ("quantile", "2"), ("quantile", "-1"),
        ("min_lift", "nan"), ("min_lift", "inf"),
        ("deadline_s", "inf"), ("deadline_s", "nan"), ("deadline_s", "-1"),
    ])
    def test_recommend_rejects(self, daemon, name, value):
        before = self.submitted(daemon)
        status, body = daemon.request(
            "GET", f"{RECOMMEND}&{name}={value}", timeout=60.0
        )
        assert status == 400 and name in body["error"]
        assert self.submitted(daemon) == before

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -1.0, 0.0, "soon", None,
    ])
    def test_sweep_rejects_deadline(self, daemon, value):
        before = self.submitted(daemon)
        status, body = submit(daemon, deadline_s=value)
        assert status == 400 and "deadline_s" in body["error"]
        assert self.submitted(daemon) == before

    @pytest.mark.parametrize("plan", [
        {**PLAN_PAYLOAD, "arch": "nosuch"},
        {**PLAN_PAYLOAD, "workloads": ["nosuch"]},
        {**PLAN_PAYLOAD, "scale": "huge"},
    ])
    def test_sweep_rejects_unrunnable_plan(self, daemon, plan):
        before = self.submitted(daemon)
        status, body = daemon.request("POST", "/sweep", body={"plan": plan})
        assert status == 400 and "unknown" in body["error"]
        assert self.submitted(daemon) == before

    def test_recommend_rejects_unknown_machine(self, daemon):
        before = self.submitted(daemon)
        status, body = daemon.request(
            "GET", RECOMMEND.replace("arch=milan", "arch=nosuch"),
            timeout=60.0,
        )
        assert status == 400 and "unknown" in body["error"]
        assert self.submitted(daemon) == before

    def test_deadline_capped_at_the_server_default(self, daemon):
        status, resp = daemon.request("POST", "/sweep", body={
            "plan": {**PLAN_PAYLOAD, "seed": 11}, "deadline_s": 1e9,
        })
        assert status == 202 and not resp["coalesced"]
        job = daemon.daemon.queue.get(resp["job_id"])
        assert job.deadline_s == daemon.daemon.config.deadline_s
        daemon.wait_for_state(resp["job_id"], ("done",), timeout_s=300.0)

    def test_quantile_bounds_are_inclusive(self, daemon):
        for quantile in ("0", "1"):
            status, body = daemon.request(
                "GET", f"{RECOMMEND}&quantile={quantile}&deadline_s=300",
                timeout=300.0,
            )
            assert status == 200 and body["quantile"] == float(quantile)


class TestLintEndpoint:
    def test_environment_findings(self, daemon):
        status, body = daemon.request("POST", "/lint", body={
            "arch": "milan",
            "env": {"OMP_NUM_THREADS": "1000"},
        })
        assert status == 200 and body["n_findings"] >= 1
        assert body["n_errors"] >= 1
        parsed = json.loads(json.dumps(body))   # JSON-ready end to end
        assert parsed["findings"][0]["rule"]

    def test_clean_environment(self, daemon):
        status, body = daemon.request("POST", "/lint", body={
            "arch": "milan", "env": {"OMP_NUM_THREADS": "48"},
        })
        assert status == 200 and body["n_errors"] == 0

    def test_missing_arch_400(self, daemon):
        assert daemon.request("POST", "/lint", body={"env": {}})[0] == 400


class TestDrainAndResume:
    def test_drain_interrupts_then_restart_resumes(self, tmp_path):
        config = DaemonConfig(
            cache_dir=str(tmp_path / "cache"),
            state_dir=str(tmp_path / "state"),
            drain_grace_s=0.1,
        )
        handle = DaemonHandle(config)
        interrupted = []
        multi = {**PLAN_PAYLOAD, "workloads": ["nqueens", "cg"],
                 "inputs_limit": 2}
        try:
            status, resp = handle.request("POST", "/sweep", body={
                "plan": multi, "client": "tests", "throttle_s": 0.4,
            })
            job_id = resp["job_id"]
            handle.wait_for_events(job_id, 1, timeout_s=300.0)
        finally:
            interrupted = handle.drain().get("interrupted", [])
        assert interrupted == [job_id]

        revived = DaemonHandle(config)
        try:
            assert revived.daemon.resumed_job_ids == [job_id]
            final = revived.wait_for_state(
                job_id, ("done",), timeout_s=300.0
            )
            assert final["state"] == "done"
            status, served = revived.request(
                "GET", f"/jobs/{job_id}/records"
            )
            multi_plan = SweepPlan(
                arch="milan", workload_names=("nqueens", "cg"),
                scale="small", repetitions=2, inputs_limit=2,
            )
            assert served == records_payload(run_sweep(multi_plan).block)
            # fresh ids continue past the resumed one after restart
            status, newer = submit(revived)
            assert newer["job_id"] > job_id
            revived.wait_for_state(newer["job_id"], ("done",),
                                   timeout_s=300.0)
        finally:
            revived.drain()


class TestDaemonLifecycle:
    def test_port_file_is_published(self, tmp_path):
        port_file = tmp_path / "port"
        handle = DaemonHandle(DaemonConfig(port_file=str(port_file)))
        try:
            assert int(port_file.read_text()) == handle.port
        finally:
            handle.drain()

    def test_run_requires_no_dirs(self):
        # cache/state-less daemon still serves health and lint
        handle = DaemonHandle(DaemonConfig())
        try:
            status, body = handle.request("GET", "/healthz")
            assert status == 200 and "cache" not in body
        finally:
            handle.drain()

    def test_plan_payload_matches_direct_plan(self):
        # guards the test suite itself: the payload and SweepPlan used
        # for ground truth must describe the same sweep
        from repro.serve.app import _plan_from_payload

        assert _plan_from_payload(PLAN_PAYLOAD) == PLAN
