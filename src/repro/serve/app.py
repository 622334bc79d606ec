"""The serving daemon's HTTP front end (``repro-omp serve``).

Hand-rolled on ``asyncio.start_server`` — no framework, no new
dependencies — because the robustness requirements reach *below* what
``http.server`` exposes: per-read timeouts so a slow client is shed
with ``408`` instead of pinning a connection, chunked streaming for
progress events, and a drain path that must coordinate the listener,
the job queue, and the journal.

Endpoint catalog (full semantics in ``docs/SERVING.md``):

====================== ====== ========================================
``/healthz``           GET    liveness + breaker/queue/limiter snapshot
``/readyz``            GET    503 while draining or saturated
``/sweep``             POST   submit a sweep job (202 + job id)
``/jobs/<id>``         GET    job status with degradation markers
``/jobs/<id>/records`` GET    full record dump of a finished job
``/jobs/<id>/events``  GET    chunked NDJSON progress stream
``/jobs/<id>/cancel``  POST   cooperative cancellation
``/recommend``         GET    synchronous tuning advice (504 past its
                              deadline, with the job id to poll)
``/lint``              POST   environment lint without a sweep
====================== ====== ========================================

Admission control runs in a fixed order — drain gate (``503``), rate
limit (``429`` + ``Retry-After``), coalescing (an identical in-flight
request is *answered from*, not re-queued), queue capacity (``429`` +
``Retry-After``) — so overload sheds at the cheapest possible point.
The ``/recommend`` waiters of one job wake together on one settle
future and share one recommendation per ``(quantile, min_lift)`` while
it is being computed.

Every response body is built by :mod:`repro.serve.render` (FLOW001
result roots), so served results can never absorb host time.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qs

from repro.core.envspace import EnvSpace
from repro.core.sweep import SweepPlan, SweepResult, plan_batches, run_sweep
from repro.errors import (
    ConfigError,
    ReproError,
    ResilienceError,
    ServeError,
    SweepCancelledError,
    UnknownMachine,
    UnknownWorkload,
)
from repro.resilience.chaos import ChaosPlan
from repro.serve import render
from repro.serve.breaker import BackendLadder
from repro.serve.coalesce import Coalescer, sweep_request_key
from repro.serve.journal import JobJournal
from repro.serve.limits import TokenBucket, wall_clock
from repro.serve.queue import Job, JobQueue, QueueFull

__all__ = ["DaemonConfig", "TuningDaemon"]

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


@dataclass(frozen=True)
class DaemonConfig:
    """Everything ``repro-omp serve`` can tune (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Default executor backend for served sweeps (ladder top).
    backend: str = "serial"
    #: Worker threads = concurrently running sweeps.
    max_inflight: int = 2
    #: Bounded queue depth beyond the in-flight jobs.
    max_queued: int = 16
    #: Default per-request deadline (a request may set its own).
    deadline_s: float = 60.0
    #: Grace window a SIGTERM drain waits before cancelling.
    drain_grace_s: float = 5.0
    #: Per-read timeout while parsing a request (slow-client shedding).
    header_timeout_s: float = 5.0
    #: Largest accepted request body.
    body_limit: int = 1 << 20
    #: Token-bucket rate limit per client key.
    rate_per_s: float = 50.0
    burst: int = 100
    #: Sweep cache directory (shared with the CLI); None disables.
    cache_dir: str | None = None
    #: State directory for the drain journal; None disables resume.
    state_dir: str | None = None
    #: Circuit-breaker tuning.
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    #: fsync journal appends and cache entries (durability mode).
    fsync: bool = False
    #: File the bound port is written to once listening (subprocess
    #: orchestration; the CLI also prints it).
    port_file: str | None = None


def _plan_from_payload(payload: object) -> SweepPlan:
    """A ``SweepPlan`` from a request's ``plan`` object (strict)."""
    if not isinstance(payload, dict):
        raise ServeError("'plan' must be a JSON object")
    allowed = ("arch", "workloads", "scale", "repetitions", "inputs_limit",
               "seed", "fidelity", "prune")
    for key in payload:
        if key not in allowed:
            raise ServeError(f"unknown plan field {key!r}")
    if "arch" not in payload:
        raise ServeError("'plan.arch' is required")
    workloads = payload.get("workloads")
    if workloads is not None:
        if (not isinstance(workloads, list)
                or not all(isinstance(w, str) for w in workloads)):
            raise ServeError("'plan.workloads' must be a list of names")
        workloads = tuple(workloads)
    try:
        return SweepPlan(
            arch=payload["arch"],
            workload_names=workloads,
            scale=payload.get("scale", "small"),
            repetitions=int(payload.get("repetitions", 3)),
            inputs_limit=(None if payload.get("inputs_limit") is None
                          else int(payload["inputs_limit"])),
            seed=int(payload.get("seed", 0)),
            fidelity=payload.get("fidelity", "analytic"),
            prune=bool(payload.get("prune", True)),
        )
    except (ConfigError, TypeError, ValueError) as exc:
        raise ServeError(f"invalid plan: {exc}") from exc


def _number(raw: object, name: str, ok: Callable[[float], bool],
            rule: str) -> float:
    """``raw`` as a finite float that satisfies ``ok``; anything else is
    a :class:`ServeError` (a ``400``) naming ``rule``."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and ok(value)):
        raise ServeError(f"{name!r} must be {rule}, got {raw!r}")
    return value


class TuningDaemon:
    """The tuning-as-a-service daemon (construct, then :meth:`run`)."""

    def __init__(
        self,
        config: DaemonConfig,
        clock: Callable[[], float] = wall_clock,
    ):
        self.config = config
        self.clock = clock
        self.cache = None
        if config.cache_dir is not None:
            from repro.core.cache import SweepCache

            self.cache = SweepCache(config.cache_dir, fsync=config.fsync)
        self.journal = None
        if config.state_dir is not None:
            self.journal = JobJournal(
                Path(config.state_dir) / "jobs.journal",
                fsync=config.fsync,
            )
        self.ladder = BackendLadder(
            failure_threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
            clock=clock,
        )
        self.limiter = TokenBucket(
            config.rate_per_s, config.burst, clock=clock
        )
        self.coalescer = Coalescer()
        #: In-flight recommendation computations by ``(job id, quantile,
        #: min_lift)``; touched only on the event-loop thread.
        self._answers: dict[tuple[str, float, float], asyncio.Task] = {}
        #: One settle future per awaited job id, dropped once it
        #: resolves; touched only on the event-loop thread.
        self._settles: dict[str, asyncio.Future] = {}
        self.queue = JobQueue(
            self._run_job,
            max_queued=config.max_queued,
            workers=config.max_inflight,
            journal=self.journal,
            clock=clock,
            on_settled=self._on_settled,
        )
        self._id_lock = threading.Lock()
        self._job_seq = (self.journal.next_job_number()
                         if self.journal is not None else 1)
        self.port: int | None = None
        self.resumed_job_ids: list[str] = []
        self.interrupted_job_ids: list[str] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None

    # -- job plumbing ----------------------------------------------------
    def _next_job_id(self) -> str:
        with self._id_lock:
            job_id = f"j{self._job_seq:06d}"
            self._job_seq += 1
            return job_id

    def _on_settled(self, job: Job) -> None:
        if job.coalesce_key:
            self.coalescer.release(job.coalesce_key, job)

    def _run_job(self, job: Job) -> None:
        """Worker-thread body: one served sweep through the ladder.

        The requested backend's breaker ladder decides the rung order;
        a :class:`~repro.errors.ResilienceError` (PoisonBatch, node
        loss, respawn exhaustion) books a breaker failure and falls to
        the next rung — re-running against the same cache, so work the
        broken rung landed is not repaid.  Injected chaos (the
        ``backend-death-mid-request`` service fault) rides only the
        *first* rung: fallback rungs model healthy infrastructure.
        """
        params = job.params
        plan = _plan_from_payload(params.get("plan"))
        requested, n_processes, fail_policy = self._sweep_knobs(params)
        ladder = self.ladder.ladder_for(requested)
        rungs = self.ladder.rungs_for(requested)
        job.backend_requested = requested
        throttle_s = float(params.get("throttle_s", 0.0))
        chaos = (ChaosPlan.from_dict(params["chaos"])
                 if params.get("chaos") else None)
        last_exc: Exception | None = None
        for rung_index, rung in enumerate(rungs):
            rung_chaos = chaos if rung_index == 0 else None

            def progress(done, total, app, input_size, nthreads,
                         _rung=rung):
                job.add_event({
                    "batches_done": done,
                    "batches_total": total,
                    "app": app,
                    "input": input_size,
                    "threads": nthreads,
                    "backend": _rung,
                })
                if throttle_s > 0.0:
                    # Waiting on the cancel event sleeps *and* wakes
                    # early on cancellation — a deliberate test seam
                    # for deterministic mid-sweep drains.
                    job.cancel_event.wait(throttle_s)

            try:
                result = run_sweep(
                    plan,
                    n_processes=n_processes,
                    progress=progress,
                    cache=self.cache,
                    fail_policy=fail_policy,
                    chaos=rung_chaos,
                    backend=rung,
                    cancel=job.cancel_event,
                )
            except SweepCancelledError:
                raise  # deadline/drain/cancel: never a backend's fault
            except ResilienceError as exc:
                self.ladder.record(rung, ok=False)
                last_exc = exc
                job.add_event({
                    "backend": rung,
                    "degrade": f"{type(exc).__name__}: {exc}",
                })
                continue
            self.ladder.record(rung, ok=True)
            job.backend_used = result.backend
            job.degraded = result.backend != ladder[0]
            job.result = result
            job.summary = render.sweep_summary_payload(result)
            return
        raise last_exc if last_exc is not None else ServeError(
            f"no dispatchable backend for {requested!r}"
        )

    def _sweep_knobs(self, params: dict) -> tuple[str, int, str]:
        """A sweep request's ``(backend, n_processes, fail_policy)``:
        what it runs under and what it coalesces on."""
        return (params.get("backend", self.config.backend),
                int(params.get("n_processes", 2)),
                params.get("fail_policy", "raise"))

    def _deadline_s(self, raw: object) -> float:
        """A request's ``deadline_s``: finite and positive, capped at the
        daemon's default (:class:`ServeError` otherwise)."""
        return min(
            _number(raw, "deadline_s", lambda v: v > 0.0,
                    "a finite number > 0"),
            self.config.deadline_s,
        )

    def _make_sweep_job(self, params: dict, client: str,
                        coalesce_key: str) -> Job:
        job = Job(
            self._next_job_id(),
            params,
            kind="sweep",
            client=client,
            coalesce_key=coalesce_key,
            deadline_s=self._deadline_s(
                params.get("deadline_s", self.config.deadline_s)
            ),
        )
        return job

    def _submit_sweep(self, params: dict, client: str) -> tuple[Job, bool]:
        """Coalesce-or-enqueue one sweep request (see admission order)."""
        plan = _plan_from_payload(params.get("plan"))
        # Refuse a plan no sweep can run (unknown machine, workload or
        # scale) before it is keyed or queued.
        plan_batches(plan)
        EnvSpace.check_scale(plan.scale)
        backend, n_processes, fail_policy = self._sweep_knobs(params)
        key = sweep_request_key(
            plan,
            backend=backend,
            n_processes=n_processes,
            fail_policy=fail_policy,
        )

        def factory() -> Job:
            job = self._make_sweep_job(params, client, key)
            self.queue.submit(job)
            return job

        job, created = self.coalescer.get_or_create(key, factory)
        return job, created

    def resume_unfinished(self) -> list[str]:
        """Re-enqueue journaled non-terminal jobs (restart path)."""
        if self.journal is None:
            return []
        resumed = []
        for view in self.journal.unfinished():
            try:
                deadline_s = self._deadline_s(
                    view["params"].get("deadline_s", self.config.deadline_s)
                )
            except ServeError:  # journaled before deadlines were checked
                deadline_s = self.config.deadline_s
            job = Job(
                view["id"],
                view["params"],
                kind="sweep",
                client=view.get("client", ""),
                coalesce_key=view.get("coalesce_key", ""),
                deadline_s=deadline_s,
            )
            job.detail = "resumed from journal"
            if job.coalesce_key:
                self.coalescer.get_or_create(job.coalesce_key, lambda: job)
            self.queue.submit(job)
            resumed.append(job.id)
        self.resumed_job_ids = resumed
        return resumed

    # -- HTTP plumbing ---------------------------------------------------
    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: dict,
        extra_headers: tuple = (), keep: bool = True,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep else 'close'}",
        ]
        for name, value in extra_headers:
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("utf-8"))
        writer.write(body)
        await writer.drain()

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; returns (method, path, qs, headers, body)
        or an int HTTP status to shed the connection with."""
        timeout = self.config.header_timeout_s
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout
            )
        except asyncio.TimeoutError:
            return 408
        if not request_line:
            return None  # clean EOF between keep-alive requests
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return 400
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                line = await asyncio.wait_for(reader.readline(), timeout)
            except asyncio.TimeoutError:
                return 408
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return 400  # EOF mid-headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                return 400
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return 400
        if length < 0:
            return 400
        if length > self.config.body_limit:
            return 413
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout
                )
            except asyncio.TimeoutError:
                return 408
            except asyncio.IncompleteReadError:
                return 400
        path, _, query = target.partition("?")
        return method, path, parse_qs(query), headers, body

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                if isinstance(request, int):
                    detail = {
                        408: "client too slow: request read timed out",
                        413: "request body exceeds the size limit",
                    }.get(request, "malformed request")
                    await self._respond(
                        writer, request, {"error": detail}, keep=False
                    )
                    break
                keep = await self._dispatch(writer, *request)
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: the loop is shutting down mid-close;
                # the socket is gone either way.
                pass

    def _client_key(self, headers: dict, payload: object, peer) -> str:
        key = headers.get("x-client-key", "")
        if not key and isinstance(payload, dict):
            key = str(payload.get("client", ""))
        if not key:
            key = peer[0] if isinstance(peer, tuple) else str(peer)
        return key or "anonymous"

    async def _dispatch(self, writer, method, path, qs, headers,
                        body) -> bool:
        """Route one parsed request; True to keep the connection."""
        peer = writer.get_extra_info("peername")
        keep = headers.get("connection", "").lower() != "close"
        try:
            if path == "/healthz" and method == "GET":
                await self._respond(writer, 200, self._health_payload())
            elif path == "/readyz" and method == "GET":
                ready, payload = self._ready_payload()
                await self._respond(
                    writer, 200 if ready else 503, payload
                )
            elif path == "/sweep" and method == "POST":
                await self._post_sweep(writer, headers, body, peer)
            elif path == "/lint" and method == "POST":
                await self._post_lint(writer, body)
            elif path == "/recommend" and method == "GET":
                await self._get_recommend(writer, qs, headers, peer)
            elif path.startswith("/jobs/"):
                return await self._jobs_route(
                    writer, method, path, keep
                )
            else:
                await self._respond(
                    writer, 404, {"error": f"no route {method} {path}"}
                )
        except (ServeError, ConfigError, UnknownMachine,
                UnknownWorkload) as exc:
            # The *request* described an invalid plan (unknown machine,
            # workload or scale): the client's fault.
            await self._respond(writer, 400, {"error": str(exc)})
        except ReproError as exc:
            await self._respond(
                writer, 500,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
        return keep

    # -- endpoint bodies -------------------------------------------------
    def _health_payload(self) -> dict:
        payload = {
            "status": "ok",
            "draining": self.queue.draining,
            "jobs": len(self.queue.jobs),
            "queue": self.queue.describe(),
            "breakers": self.ladder.describe(),
            "limiter": self.limiter.describe(),
            "coalescer": self.coalescer.describe(),
        }
        if self.cache is not None:
            stats = self.cache.stats
            payload["cache"] = {
                "entries": stats["entries"],
                "hits": stats["hits"],
                "misses": stats["misses"],
                "writes": stats["writes"],
                "lost_races": stats["lost_races"],
                "corrupt": stats["corrupt"],
            }
        return payload

    def _ready_payload(self) -> tuple[bool, dict]:
        queued, running = self.queue.depth()
        if self.queue.draining:
            return False, {"ready": False, "reason": "draining"}
        if queued >= self.queue.max_queued:
            return False, {"ready": False, "reason": "queue full"}
        return True, {"ready": True}

    async def _admit(self, writer, headers, payload, peer) -> str | None:
        """Shared admission gates; returns the client key, or None if a
        refusal response was already sent."""
        if self.queue.draining:
            await self._respond(
                writer, 503,
                {"error": "daemon is draining; not admitting jobs"},
                extra_headers=(("Retry-After", "5"),),
            )
            return None
        client = self._client_key(headers, payload, peer)
        wait_s = self.limiter.try_acquire(client)
        if wait_s > 0.0:
            await self._respond(
                writer, 429,
                {"error": "rate limit exceeded", "client": client,
                 "retry_after_s": round(wait_s, 3)},
                extra_headers=(
                    ("Retry-After", str(max(1, int(wait_s + 0.999)))),
                ),
            )
            return None
        return client

    async def _post_sweep(self, writer, headers, body, peer) -> None:
        try:
            params = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(
                writer, 400, {"error": f"invalid JSON body: {exc}"}
            )
            return
        if not isinstance(params, dict):
            await self._respond(
                writer, 400, {"error": "body must be a JSON object"}
            )
            return
        if "deadline_s" in params:
            self._deadline_s(params["deadline_s"])  # 400 before admission
        client = await self._admit(writer, headers, params, peer)
        if client is None:
            return
        try:
            job, created = await asyncio.to_thread(
                self._submit_sweep, params, client
            )
        except QueueFull as exc:
            await self._respond(
                writer, 429,
                {"error": str(exc),
                 "retry_after_s": exc.retry_after_s},
                extra_headers=(
                    ("Retry-After",
                     str(max(1, int(exc.retry_after_s + 0.999)))),
                ),
            )
            return
        except ServeError as exc:
            status = 503 if "draining" in str(exc) else 400
            await self._respond(writer, status, {"error": str(exc)})
            return
        payload = render.job_payload(job.view())
        payload["coalesced"] = not created
        await self._respond(writer, 202, payload)

    async def _post_lint(self, writer, body) -> None:
        from repro.lint.runner import lint_environment

        try:
            params = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(
                writer, 400, {"error": f"invalid JSON body: {exc}"}
            )
            return
        if not isinstance(params, dict) or "arch" not in params:
            await self._respond(
                writer, 400,
                {"error": "body must be {'arch': ..., 'env': {...}}"},
            )
            return
        env = params.get("env", {})
        if not isinstance(env, dict):
            await self._respond(
                writer, 400, {"error": "'env' must be an object"}
            )
            return
        try:
            findings = await asyncio.to_thread(
                lint_environment,
                {str(k): str(v) for k, v in env.items()},
                params["arch"],
            )
        except ReproError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        await self._respond(writer, 200, {
            "n_findings": len(findings),
            "n_errors": sum(1 for f in findings if f.severity.fails),
            "findings": [f.to_dict() for f in findings],
        })

    async def _get_recommend(self, writer, qs, headers, peer) -> None:
        def first(name: str, default: str | None = None) -> str | None:
            values = qs.get(name)
            return values[0] if values else default

        if first("arch") is None:
            await self._respond(
                writer, 400, {"error": "query parameter 'arch' is required"}
            )
            return
        plan_payload: dict = {"arch": first("arch")}
        if qs.get("workload"):
            plan_payload["workloads"] = qs["workload"]
        for name, cast in (("scale", str), ("repetitions", int),
                           ("inputs_limit", int), ("seed", int),
                           ("fidelity", str)):
            raw = first(name)
            if raw is not None:
                try:
                    plan_payload[name] = cast(raw)
                except ValueError:
                    await self._respond(
                        writer, 400,
                        {"error": f"invalid value for {name!r}: {raw!r}"},
                    )
                    return
        params = {"plan": plan_payload}
        backend = first("backend")
        if backend is not None:
            params["backend"] = backend
        # Checked before admission: a bad value is a 400, never a job.
        deadline_s = self._deadline_s(
            first("deadline_s", str(self.config.deadline_s))
        )
        quantile = _number(first("quantile", "0.05"), "quantile",
                           lambda q: 0.0 <= q <= 1.0, "a number in [0, 1]")
        min_lift = _number(first("min_lift", "1.3"), "min_lift",
                           lambda v: v > 0.0, "a finite number > 0")
        params["deadline_s"] = deadline_s
        client = await self._admit(writer, headers, params, peer)
        if client is None:
            return
        try:
            job, _created = await asyncio.to_thread(
                self._submit_sweep, params, client
            )
        except QueueFull as exc:
            await self._respond(
                writer, 429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                extra_headers=(
                    ("Retry-After",
                     str(max(1, int(exc.retry_after_s + 0.999)))),
                ),
            )
            return
        # Wait for the job to settle under the *request's* deadline.  The
        # job is deliberately not cancelled on expiry: it keeps running
        # (and warming the cache), and the 504 body carries its id to poll.
        try:
            await asyncio.wait_for(asyncio.shield(self._settled(job)),
                                   deadline_s)
        except asyncio.TimeoutError:
            await self._respond(
                writer, 504,
                {"error": "recommendation not ready within the deadline",
                 "job_id": job.id, "state": job.state},
            )
            return
        if job.state != "done" or job.result is None:
            await self._respond(
                writer, 502,
                {"error": f"underlying sweep {job.state}",
                 "job": render.job_payload(job.view())},
            )
            return
        settings = await self._shared_recommendations(job, quantile, min_lift)
        payload = render.recommend_payload(settings, quantile, min_lift)
        payload["job"] = render.job_payload(job.view())
        await self._respond(writer, 200, payload)

    def _settled(self, job: Job) -> asyncio.Future:
        """The running loop's one future for ``job``, resolved once it
        settles.

        Every waiter of the job gets the same future, resolved by one
        done-callback, so coalesced waiters all wake in the same loop
        iteration and meet one in-flight recommendation.  Waiters await
        it through :func:`asyncio.shield`, so one waiter's timeout never
        cancels it for the others; the entry is dropped as it resolves.
        """
        future = self._settles.get(job.id)
        if future is not None:
            return future
        loop = asyncio.get_running_loop()
        future = self._settles[job.id] = loop.create_future()

        def resolve() -> None:
            del self._settles[job.id]
            future.set_result(None)

        def wake(_job: Job) -> None:
            try:
                loop.call_soon_threadsafe(resolve)
            except RuntimeError:
                pass  # the loop closed during drain: nobody is waiting

        job.add_done_callback(wake)
        return future

    async def _shared_recommendations(self, job: Job, quantile: float,
                                      min_lift: float) -> list[dict]:
        """``job``'s recommendations, computed once per in-flight
        ``(job, quantile, min_lift)``.

        The first waiter starts :meth:`_recommendations` on a worker
        thread; the coalesced waiters of the same job await that task.
        Each awaits it through :func:`asyncio.shield`, so one client
        going away never cancels the answer for the others.  The entry
        is dropped as soon as the task finishes, so nothing is kept
        after the burst, and an error the computation raises reaches
        every waiter.
        """
        key = (job.id, quantile, min_lift)
        task = self._answers.get(key)
        if task is None:
            task = asyncio.create_task(asyncio.to_thread(
                self._recommendations, job.result, quantile, min_lift
            ))
            self._answers[key] = task

            def forget(done: asyncio.Task) -> None:
                del self._answers[key]
                if not done.cancelled():
                    done.exception()  # retrieved, even if every waiter left

            task.add_done_callback(forget)
        return await asyncio.shield(task)

    @staticmethod
    def _recommendations(result: SweepResult, quantile: float,
                         min_lift: float) -> list[dict]:
        from repro.core.dataset import (
            aggregate_runs,
            enrich_with_speedup,
            records_to_table,
        )
        from repro.core.recommend import best_variable_values

        table = enrich_with_speedup(
            aggregate_runs(records_to_table(result.block))
        )
        return [
            {
                "app": rec.app,
                "arch": rec.arch,
                "variable": rec.variable,
                "values": list(rec.values),
                "lift": rec.lift,
                "best_speedup": rec.best_speedup,
            }
            for rec in best_variable_values(
                table, quantile=quantile, min_lift=min_lift
            )
        ]

    async def _jobs_route(self, writer, method, path, keep) -> bool:
        parts = path.strip("/").split("/")
        job = self.queue.get(parts[1]) if len(parts) >= 2 else None
        if job is None:
            await self._respond(
                writer, 404, {"error": f"unknown job {path!r}"}
            )
            return keep
        sub = parts[2] if len(parts) == 3 else ""
        if sub == "" and method == "GET":
            await self._respond(writer, 200, render.job_payload(job.view()))
        elif sub == "records" and method == "GET":
            if job.state != "done" or job.result is None:
                await self._respond(
                    writer, 409,
                    {"error": f"job {job.id} is {job.state}, not done",
                     "state": job.state},
                )
            else:
                await self._respond(
                    writer, 200, render.records_payload(job.result.block)
                )
        elif sub == "cancel" and method == "POST":
            if self.queue.cancel(job.id):
                await self._respond(
                    writer, 202, {"job_id": job.id, "cancelling": True}
                )
            else:
                await self._respond(
                    writer, 409,
                    {"error": f"job {job.id} already {job.state}"},
                )
        elif sub == "events" and method == "GET":
            await self._stream_events(writer, job)
            return False  # chunked stream ends the connection
        else:
            await self._respond(
                writer, 405, {"error": f"no route {method} {path}"}
            )
        return keep

    async def _stream_events(self, writer, job: Job) -> None:
        """Chunked NDJSON progress stream until the job settles."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("utf-8"))

        async def chunk(obj: dict) -> None:
            data = (json.dumps(obj) + "\n").encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode("ascii"))
            writer.write(data + b"\r\n")
            await writer.drain()

        seq = 0
        while True:
            for event in job.events_since(seq):
                await chunk(event)
                seq += 1
            if job.settled:
                await chunk({"state": job.state, "final": True})
                break
            await asyncio.sleep(0.05)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- lifecycle -------------------------------------------------------
    def request_drain(self) -> None:
        """Begin a graceful drain (signal handler / harness entry)."""
        self.queue.begin_drain()
        if self._shutdown is not None:
            self._shutdown.set()

    def request_drain_threadsafe(self) -> None:
        """Like :meth:`request_drain`, callable from any thread."""
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self.request_drain)

    async def serve(self, started: threading.Event | None = None) -> dict:
        """Run until drained; returns a shutdown summary."""
        self.queue.start()
        self.resume_unfinished()
        server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if self.config.port_file:
            Path(self.config.port_file).write_text(
                str(self.port), encoding="utf-8"
            )
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (harness mode) or unsupported
                # platform: the harness drives drain directly instead.
                break
        if started is not None:
            started.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            self.interrupted_job_ids = await asyncio.to_thread(
                self.queue.drain, self.config.drain_grace_s
            )
        return {
            "resumed": self.resumed_job_ids,
            "interrupted": self.interrupted_job_ids,
        }

    def run(self) -> dict:
        """Blocking entry point (the CLI's ``repro-omp serve``)."""
        return asyncio.run(self.serve())
