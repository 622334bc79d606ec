"""Scripted client scenario driving the daemon through service faults.

The sweep-level chaos plane (:mod:`repro.resilience.chaos`) injects
faults *inside* one sweep; this module injects faults *around* the
daemon — the three ``SERVICE_FAULT_KINDS``:

``slow-client``
    A client opens a connection, sends half a request line, and stalls.
    The daemon must shed it with ``408`` instead of letting it pin a
    connection slot.
``backend-death-mid-request``
    A served sweep's first-choice backend dies under it (an all-attempt
    crash fault at a seeded batch index).  The daemon must trip the
    circuit breaker, fall down the ladder, finish ``degraded`` — and
    the records must still be identical to a fault-free direct sweep.
``kill-during-drain``
    SIGTERM starts a graceful drain; SIGKILL lands *inside* the drain
    window, before the polite shutdown finishes.  A restarted daemon
    must resume the journaled job and complete it, batch-for-batch
    identical, with the pre-kill batches served from cache.

The daemon under test is a **real subprocess** (``repro-omp serve``)
with zero test hooks — every fault is driven from the client side, so
the scenario exercises exactly the binary an operator runs.  Fault
placement is seeded via :class:`~repro.resilience.chaos.ServiceChaosPlan`
(``random.Random(f"svc:{seed}")``), so a seed pins the whole scenario.

Used by ``repro-omp chaos --serve`` and the CI ``serve`` job.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.core.sweep import SweepPlan, plan_batches, run_sweep
from repro.errors import ServeError
from repro.resilience.chaos import ServiceChaosPlan
from repro.serve.harness import DaemonClient
from repro.serve.limits import wall_clock
from repro.serve.render import records_payload

__all__ = ["DaemonProcess", "run_service_scenario"]


class DaemonProcess(DaemonClient):
    """One ``repro-omp serve`` subprocess with port-file discovery."""

    def __init__(
        self,
        cache_dir: str,
        state_dir: str,
        backend: str = "pool",
        deadline_s: float = 300.0,
        drain_grace_s: float = 3.0,
        header_timeout_s: float = 0.5,
        breaker_threshold: int = 1,
        start_timeout_s: float = 30.0,
    ):
        self.port_file = Path(state_dir) / "port"
        if self.port_file.exists():
            self.port_file.unlink()
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--backend", backend,
            "--cache-dir", cache_dir,
            "--state-dir", state_dir,
            "--port-file", str(self.port_file),
            "--deadline-s", str(deadline_s),
            "--drain-grace-s", str(drain_grace_s),
            "--header-timeout-s", str(header_timeout_s),
            "--breaker-threshold", str(breaker_threshold),
        ]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            argv, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.port = self._wait_for_port(start_timeout_s)

    def _wait_for_port(self, timeout_s: float) -> int:
        deadline = wall_clock() + timeout_s
        while wall_clock() < deadline:
            if self.proc.poll() is not None:
                raise ServeError(
                    f"daemon exited early with code {self.proc.returncode}"
                )
            try:
                text = self.port_file.read_text(encoding="utf-8").strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.05)
        self.proc.kill()
        raise ServeError(f"daemon did not publish a port in {timeout_s}s")

    def slow_client_probe(self, stall_s: float,
                          timeout_s: float = 10.0) -> int:
        """Send half a request and stall; the daemon's shed status."""
        with socket.create_connection(
            ("127.0.0.1", self.port), timeout=timeout_s
        ) as sock:
            sock.sendall(b"POST /sweep HTTP/1.1\r\nContent-")
            time.sleep(stall_s)
            sock.settimeout(timeout_s)
            raw = sock.recv(4096)
        line = raw.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = line.split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServeError(f"unparseable shed response: {line!r}")
        return int(parts[1])

    # -- lifecycle -------------------------------------------------------
    def sigterm(self) -> None:
        self.proc.send_signal(signal.SIGTERM)

    def sigkill(self) -> None:
        self.proc.kill()

    def wait(self, timeout_s: float = 30.0) -> int:
        return self.proc.wait(timeout_s)

    def stop(self, timeout_s: float = 30.0) -> int:
        """Polite shutdown: SIGTERM, then wait (SIGKILL as last resort)."""
        if self.proc.poll() is None:
            self.sigterm()
            try:
                return self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        return self.proc.wait(5.0)


def run_service_scenario(
    arch: str = "milan",
    workloads: tuple[str, ...] = ("nqueens", "cg"),
    scale: str = "small",
    repetitions: int = 2,
    inputs_limit: int = 2,
    seed: int = 0,
    n_requests: int = 6,
    slow_clients: int = 1,
    backend_deaths: int = 1,
    drain_kills: int = 1,
    work_dir: str | os.PathLike = ".",
    artifact_dir: str | os.PathLike | None = None,
) -> dict:
    """Run the full scripted scenario; returns a JSON-ready verdict.

    ``verdict["ok"]`` is True iff every fault produced its required
    outcome *and* every completed served sweep was record-identical to
    the fault-free direct ``run_sweep`` ground truth.
    """
    work = Path(work_dir)
    plan = SweepPlan(
        arch=arch,
        workload_names=tuple(workloads) if workloads else None,
        scale=scale,
        repetitions=repetitions,
        inputs_limit=inputs_limit,
    )
    plan_payload = {
        "arch": arch,
        "workloads": list(workloads) if workloads else None,
        "scale": scale,
        "repetitions": repetitions,
        "inputs_limit": inputs_limit,
    }
    n_batches = len(plan_batches(plan))
    svc = ServiceChaosPlan.generate(
        n_requests, n_batches, seed=seed,
        slow_clients=slow_clients,
        backend_deaths=backend_deaths,
        drain_kills=drain_kills,
    )
    # Fault-free ground truth, computed directly — the daemon must
    # reproduce these records through every degradation path.
    truth = records_payload(run_sweep(plan).block)

    outcomes: list[dict] = []
    ok = True

    def record(kind: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        outcomes.append({"kind": kind, "ok": passed, "detail": detail})

    cache_dir = str(work / "cache")
    state_a = str(work / "state-burst")
    daemon = DaemonProcess(cache_dir, state_a)
    try:
        # -- coalesced burst: every fault-free request at once ----------
        normal = [i for i in range(n_requests)
                  if svc.fault_at(i) is None]
        burst_body = {
            "plan": plan_payload, "client": "scenario-burst",
            "throttle_s": 0.2, "backend": "serial",
        }
        job_ids = []
        coalesced = 0
        for _ in normal:
            status, resp = daemon.request("POST", "/sweep", burst_body)
            if status != 202:
                record("coalesced-burst", False, f"submit -> {status}")
                break
            job_ids.append(resp["job_id"])
            coalesced += int(bool(resp.get("coalesced")))
        if len(job_ids) == len(normal) and job_ids:
            shared = len(set(job_ids)) == 1 and coalesced == len(normal) - 1
            final = daemon.wait_for_state(job_ids[0], ("done", "failed"),
                                          timeout_s=120.0)
            status, records = daemon.request(
                "GET", f"/jobs/{job_ids[0]}/records"
            )
            parity = records == truth
            record(
                "coalesced-burst",
                shared and final["state"] == "done" and parity,
                f"{len(normal)} requests -> {len(set(job_ids))} job(s), "
                f"{coalesced} coalesced, state={final['state']}, "
                f"records {'identical' if parity else 'DIVERGED'}",
            )
        # -- slow clients ----------------------------------------------
        for fault in svc.faults:
            if fault.kind != "slow-client":
                continue
            status = daemon.slow_client_probe(stall_s=1.5)
            record("slow-client", status == 408,
                   f"stalled client shed with {status}")
    finally:
        daemon.stop()

    # -- backend death mid-request (cold cache, so the poisoned batch
    # really executes on the dying backend instead of hitting cache) --
    for n_death, fault in enumerate(
        f for f in svc.faults if f.kind == "backend-death-mid-request"
    ):
        state_d = str(work / f"state-death{n_death}")
        cache_d = str(work / f"cache-death{n_death}")
        daemon = DaemonProcess(cache_d, state_d)
        try:
            body = {
                "plan": plan_payload, "client": "scenario-death",
                "backend": "pool",
                "chaos": {"seed": seed, "faults": [{
                    "kind": "crash",
                    "batch_index": fault.batch_index,
                    "attempts": "all",
                }]},
            }
            status, resp = daemon.request("POST", "/sweep", body)
            if status != 202:
                record("backend-death-mid-request", False,
                       f"submit -> {status}")
                continue
            final = daemon.wait_for_state(
                resp["job_id"], ("done", "failed"), timeout_s=120.0
            )
            status, records = daemon.request(
                "GET", f"/jobs/{resp['job_id']}/records"
            )
            parity = records == truth
            record(
                "backend-death-mid-request",
                (final["state"] == "done" and final["degraded"]
                 and parity),
                f"state={final['state']}, "
                f"used={final.get('backend_used')}, "
                f"degraded={final.get('degraded')}, "
                f"records {'identical' if parity else 'DIVERGED'}",
            )
        finally:
            daemon.stop()

    # -- kill during drain (fresh state dir, cold cache) ---------------
    for n_kill, fault in enumerate(
        f for f in svc.faults if f.kind == "kill-during-drain"
    ):
        state_k = str(work / f"state-kill{n_kill}")
        cache_k = str(work / f"cache-kill{n_kill}")
        daemon = DaemonProcess(cache_k, state_k, drain_grace_s=5.0)
        body = {
            "plan": plan_payload, "client": "scenario-kill",
            "throttle_s": 0.3, "backend": "serial",
        }
        try:
            status, resp = daemon.request("POST", "/sweep", body)
            if status != 202:
                record("kill-during-drain", False, f"submit -> {status}")
                continue
            job_id = resp["job_id"]
            # Let at least one batch land (the throttle makes the gap
            # between batches wide enough to hit deterministically).
            deadline = wall_clock() + 60.0
            events = 0
            while wall_clock() < deadline:
                status, view = daemon.request("GET", f"/jobs/{job_id}")
                events = view.get("events", 0)
                if events >= 1:
                    break
                time.sleep(0.05)
            daemon.sigterm()          # graceful drain begins...
            time.sleep(0.5)
            daemon.sigkill()          # ...and dies inside the window
            daemon.wait(10.0)
        finally:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
        revived = DaemonProcess(cache_k, state_k)
        try:
            resumed_ok = False
            detail = "journal did not resurface the job"
            status, view = revived.request("GET", f"/jobs/{job_id}")
            if status == 200:
                final = revived.wait_for_state(
                    job_id, ("done", "failed"), timeout_s=120.0
                )
                status, records = revived.request(
                    "GET", f"/jobs/{job_id}/records"
                )
                parity = records == truth
                warm = (final.get("summary") or {}).get(
                    "n_cached_batches", 0
                )
                resumed_ok = (final["state"] == "done" and parity
                              and events >= 1)
                detail = (
                    f"resumed after SIGKILL, state={final['state']}, "
                    f"{warm} batch(es) from pre-kill cache, records "
                    f"{'identical' if parity else 'DIVERGED'}"
                )
            record("kill-during-drain", resumed_ok, detail)
            if artifact_dir is not None:
                dest = Path(artifact_dir)
                dest.mkdir(parents=True, exist_ok=True)
                shutil.copy(
                    Path(state_k) / "jobs.journal",
                    dest / f"kill{n_kill}.journal",
                )
        finally:
            revived.stop()

    return {
        "seed": seed,
        "n_requests": n_requests,
        "n_batches": n_batches,
        "service_chaos_plan": svc.to_dict(),
        "outcomes": outcomes,
        "ok": ok,
    }
