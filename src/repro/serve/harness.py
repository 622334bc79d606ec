"""In-process daemon harness for tests, checks, and benchmarks.

Runs a :class:`~repro.serve.app.TuningDaemon` on an ephemeral port in a
background thread (its own asyncio loop) and exposes a tiny synchronous
client over ``http.client`` (:class:`DaemonClient`, which the
subprocess daemon of :mod:`repro.serve.scenario` shares).  This is the
fixture the HTTP endpoint tests, the ``service-degrade-parity`` check,
and the serving benchmarks all share — the daemon under test is the
*real* daemon, byte-for-byte the one ``repro-omp serve`` runs; only
signal delivery is replaced (the harness calls the drain entry point
directly, since POSIX signals only reach the main thread).
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.errors import ServeError
from repro.serve.app import DaemonConfig, TuningDaemon

__all__ = ["DaemonClient", "DaemonHandle"]


class DaemonClient:
    """Synchronous HTTP client of a daemon listening on ``self.port``."""

    port: int
    #: Seconds between ``GET /jobs/<id>`` polls while waiting on a job.
    STATE_POLL_S = 0.05
    EVENTS_POLL_S = 0.02

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
        timeout: float = 30.0,
    ) -> tuple[int, dict]:
        """One HTTP round trip; returns ``(status, parsed_json_body)``."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            payload = None
            send_headers = dict(headers or {})
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                send_headers.setdefault("Content-Type", "application/json")
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                parsed = json.loads(raw.decode("utf-8")) if raw else {}
            except (json.JSONDecodeError, UnicodeDecodeError):
                parsed = {"raw": raw.decode("utf-8", "replace")}
            return response.status, parsed
        finally:
            conn.close()

    def stream_events(self, job_id: str,
                      timeout: float = 60.0) -> list[dict]:
        """Consume ``GET /jobs/<id>/events`` to its end; parsed lines."""
        status, body = self.request(
            "GET", f"/jobs/{job_id}/events", timeout=timeout
        )
        if status != 200:
            raise ServeError(f"events stream refused: {status} {body}")
        raw = body.get("raw") if isinstance(body, dict) else None
        if raw is None:
            # http.client decoded the chunked NDJSON into one blob that
            # json.loads can only parse when a single line was sent.
            return [body]
        lines = [line for line in raw.split("\n") if line]
        return [json.loads(line) for line in lines]

    def wait_for_state(self, job_id: str, states: tuple[str, ...],
                       timeout_s: float = 60.0) -> dict:
        """Poll ``GET /jobs/<id>`` until its state lands in ``states``."""
        from repro.serve.limits import wall_clock

        deadline = wall_clock() + timeout_s
        while True:
            status, body = self.request("GET", f"/jobs/{job_id}")
            if status == 200 and body.get("state") in states:
                return body
            if wall_clock() >= deadline:
                raise ServeError(
                    f"job {job_id} did not reach {states} within "
                    f"{timeout_s}s (last: {status} {body})"
                )
            threading.Event().wait(self.STATE_POLL_S)

    def wait_for_events(self, job_id: str, n_events: int,
                        timeout_s: float = 60.0) -> dict:
        """Poll until the job has streamed at least ``n_events``."""
        from repro.serve.limits import wall_clock

        deadline = wall_clock() + timeout_s
        while True:
            status, body = self.request("GET", f"/jobs/{job_id}")
            if status == 200 and body.get("events", 0) >= n_events:
                return body
            if wall_clock() >= deadline:
                raise ServeError(
                    f"job {job_id} did not reach {n_events} event(s) "
                    f"within {timeout_s}s (last: {status} {body})"
                )
            threading.Event().wait(self.EVENTS_POLL_S)


class DaemonHandle(DaemonClient):
    """One daemon, started on construction, stopped via :meth:`drain`."""

    def __init__(self, config: DaemonConfig, start_timeout_s: float = 15.0):
        self.daemon = TuningDaemon(config)
        self.shutdown_summary: dict | None = None
        self._failure: BaseException | None = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="serve-harness", daemon=True
        )
        self._thread.start()
        if not self._started.wait(start_timeout_s):
            raise ServeError(
                f"daemon failed to start within {start_timeout_s}s"
                + (f": {self._failure}" if self._failure else "")
            )
        if self._failure is not None:
            raise ServeError(f"daemon failed to start: {self._failure}")

    def _run(self) -> None:
        import asyncio

        try:
            self.shutdown_summary = asyncio.run(
                self.daemon.serve(started=self._started)
            )
        except BaseException as exc:  # surface in the test, not a thread
            self._failure = exc
            self._started.set()

    @property
    def port(self) -> int:
        """The daemon's bound TCP port (raises until it is listening)."""
        port = self.daemon.port
        if port is None:
            raise ServeError("daemon is not listening")
        return port

    # -- lifecycle -------------------------------------------------------
    def drain(self, timeout_s: float = 30.0) -> dict:
        """Graceful drain (the SIGTERM path) and join; the summary."""
        self.daemon.request_drain_threadsafe()
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise ServeError(f"daemon did not drain within {timeout_s}s")
        if self._failure is not None:
            raise ServeError(f"daemon crashed during drain: {self._failure}")
        return self.shutdown_summary or {}

    stop = drain
