"""The four benchmark workloads: set-up, timed passes and output checks.

Every workload drives the public API closed-loop from one process, with
at most two concurrent callers.  A pass is a fixed set of operations, so
the mix of work per pass never depends on timing:

* ``sweep-cold`` and ``sweep-parallel``: one ``run_sweep`` per machine
  into a fresh, empty cache; an operation is one batch landing per
  worker, timed as the gap between ``progress`` callbacks that many
  landings apart.
* ``replay-analyze``: per machine, a warm-cache replay through a new
  cache handle followed by the paper's analysis chain; an operation is
  one machine's replay plus analysis.
* ``serve-recommend``: two clients against a ``repro-omp serve``
  daemon; an operation is one ``GET /recommend`` round trip.
"""

from __future__ import annotations

import hashlib
import http.client
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from speed import REFERENCE_S, bracket, probe, slowdown
from timing import min_samples

ARCHS = ("milan", "skylake", "a64fx")
#: Operations a measured phase must hold so its p90 is resolved.
MIN_SAMPLES = min_samples()
clock = time.perf_counter


def _mod(name: str):
    return importlib.import_module(name)


def sweep_plans(seed: int) -> list:
    SweepPlan = _mod("repro.core.sweep").SweepPlan
    return [SweepPlan(arch=a, scale="small", repetitions=3, seed=seed)
            for a in ARCHS]


def records_digest(records) -> str:
    """SHA-256 over every field of every record, in order."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.arch, r.app, r.suite, r.input_size, r.num_threads,
                       r.config.key(), r.runtimes)).encode("utf-8"))
    return h.hexdigest()


def analysis_chain(records) -> str:
    """The paper's analysis chain over ``records``; a digest of its
    outputs.  Calls go through module attributes, so a tracer's wrappers
    see them."""
    dataset = _mod("repro.core.dataset")
    labeling = _mod("repro.core.labeling")
    influence = _mod("repro.core.influence")
    recommend = _mod("repro.core.recommend")
    table = dataset.enrich_with_speedup(
        dataset.aggregate_runs(dataset.records_to_table(records)))
    labeled = labeling.label_optimal(table)
    matrices = [influence.influence_by_application(labeled),
                influence.influence_by_architecture(labeled),
                influence.influence_by_arch_application(labeled)]
    best = recommend.best_variable_values(labeled)
    worst = recommend.worst_trends(labeled)
    out = repr(([(m.row_labels, m.matrix().tolist()) for m in matrices],
                best, worst))
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def recommendations(records) -> list[dict]:
    """What ``GET /recommend`` must return for ``records``, as parsed
    JSON (defaults: quantile 0.05, min_lift 1.3)."""
    dataset = _mod("repro.core.dataset")
    recommend = _mod("repro.core.recommend")
    table = dataset.enrich_with_speedup(
        dataset.aggregate_runs(dataset.records_to_table(records)))
    recs = [{"app": r.app, "arch": r.arch, "variable": r.variable,
             "values": list(r.values), "lift": r.lift,
             "best_speedup": r.best_speedup}
            for r in recommend.best_variable_values(table)]
    return json.loads(json.dumps(recs))


@dataclass
class Phase:
    """What one measured phase saw."""

    #: ``(key, seconds, probe_s)`` of every timed operation; ``probe_s``
    #: is the mean of the CPU-speed probes timed just before and just
    #: after the stretch it ran in (see speed.py).
    ops: list[tuple] = field(default_factory=list)
    #: ``(key, seconds, records, operations, probe_s)`` of every timed
    #: stretch; the rates are computed over these.
    stretches: list[tuple] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)

    @property
    def op_s(self) -> list[float]:
        return [op[1] for op in self.ops]

    @property
    def records(self) -> int:
        return sum(s[2] for s in self.stretches)

    @property
    def timed_s(self) -> float:
        return sum(s[1] for s in self.stretches)

    @property
    def n_ops(self) -> int:
        return sum(s[3] for s in self.stretches)

    @property
    def slowdown(self) -> float:
        """The host's slowdown over the phase: its median probe."""
        return slowdown([s[4] for s in self.stretches])

    def scaled(self) -> "Phase":
        """The phase with each operation's and stretch's time divided by
        the host's slowdown as the probes around its stretch measured
        it: the times at the reference speed."""
        return replace(
            self,
            ops=[(k, s * REFERENCE_S / p, p) for k, s, p in self.ops],
            stretches=[(k, s * REFERENCE_S / p, r, n, p)
                       for k, s, r, n, p in self.stretches])

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(why)


class Workload:
    """Set-up, passes and checks of one workload (subclasses fill in)."""

    name = ""
    #: Record digests of each machine's sweep, checked by :meth:`finish`.
    reference: dict | None = None

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._dirs = 0
        self.plans = sweep_plans(seed)
        plan_batches = _mod("repro.core.sweep").plan_batches
        self.n_batches = {p.arch: len(plan_batches(p)) for p in self.plans}

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"cache{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Work done once before the first timed operation."""

    def run_pass(self, phase: Phase) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, floor: int = MIN_SAMPLES) -> Phase:
        """Whole passes until ``seconds`` have elapsed and at least
        ``floor`` operations were timed."""
        phase = Phase()
        start = clock()
        while True:
            self.run_pass(phase)
            phase.passes += 1
            if clock() - start >= seconds and len(phase.ops) >= floor:
                return phase

    def finish(self, phases: list[Phase]) -> None:
        """Checks that need every phase's output (default: none)."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop whatever set-up started."""


class SweepCold(Workload):
    """In-process serial sweeps into fresh caches."""

    name = "sweep-cold"
    run_kwargs: dict = {"backend": "serial"}
    workers = 1

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.digests: dict[str, set] = {p.arch: set() for p in self.plans}

    def setup(self) -> None:
        """The untimed first sweep a fresh process pays for: one batch
        per application on every machine."""
        sweep = _mod("repro.core.sweep")
        for plan in self.plans:
            tiny = sweep.SweepPlan(arch=plan.arch, scale=plan.scale,
                                   repetitions=plan.repetitions,
                                   inputs_limit=1, seed=plan.seed)
            sweep.run_sweep(tiny, backend="serial")

    def run_pass(self, phase: Phase) -> None:
        run_sweep = _mod("repro.core.sweep").run_sweep
        SweepCache = _mod("repro.core.cache").SweepCache
        for plan in self.plans:
            expected = self.n_batches[plan.arch]
            phase.attempted += expected
            cache_dir = self.fresh_dir()
            cache = SweepCache(cache_dir)
            gaps: list[float] = []
            last = [0.0]

            def progress(*_):
                now = clock()
                gaps.append(now - last[0])
                last[0] = now

            before = probe()
            last[0] = start = clock()
            try:
                result = run_sweep(plan, cache=cache, progress=progress,
                                   **self.run_kwargs)
            except Exception as exc:  # counted, reported, run goes on
                phase.fail(expected, f"{plan.arch}: {type(exc).__name__}: "
                                     f"{exc}")
                shutil.rmtree(cache_dir)
                continue
            elapsed = clock() - start
            probe_s = bracket(before)
            phase.stretches.append((plan.arch, elapsed, len(result.records),
                                    len(gaps), probe_s))
            # Several workers land batches in bursts whose phase is
            # chance, which makes single gaps bimodal: an operation
            # spans as many successive landings as there are workers.
            n = self.workers
            phase.ops.extend(((plan.arch, i), sum(gaps[i:i + n]), probe_s)
                             for i in range(0, len(gaps) - n + 1, n))
            self._count(phase, result, cache, cache_dir)
            if result.n_quarantined_batches:
                phase.fail(result.n_quarantined_batches,
                           f"{plan.arch}: quarantined batches")
            self.digests[plan.arch].add(records_digest(result.records))
            if len(gaps) != expected:
                phase.fail(expected - len(gaps),
                           f"{plan.arch}: {len(gaps)} of {expected} "
                           "batches landed")
            del result
            shutil.rmtree(cache_dir)

    @staticmethod
    def _count(phase: Phase, result, cache, cache_dir: Path) -> None:
        c = phase.counters
        c["sweep.configs_simulated"] += result.n_simulated_configs
        c["sweep.configs_pruned"] += result.n_pruned_configs
        report = result.failure_report
        c["resilience.respawns"] += report.worker_respawns
        c["resilience.retries"] += report.n_attempts
        c["cache.hits"] += cache.hits
        c["cache.misses"] += cache.misses
        c["cache.corrupt"] += len(cache.corrupt_keys)
        c["cache.bytes_written"] += sum(
            p.stat().st_size for p in cache_dir.iterdir())

    def finish(self, phases: list[Phase]) -> None:
        """Every pass of a machine must give the same records."""
        for arch, digests in self.digests.items():
            if len(digests) > 1:
                phases[-1].fail(self.n_batches[arch],
                                f"{arch}: records differ between passes")
        if self.reference is not None:
            for arch, digests in self.digests.items():
                if digests and digests != {self.reference[arch]}:
                    phases[-1].fail(
                        self.n_batches[arch],
                        f"{arch}: records differ from the serial reference")


class SweepParallel(SweepCold):
    """The same sweeps through the default backend with two processes."""

    name = "sweep-parallel"
    workers = 2
    run_kwargs = {"n_processes": workers}

    def finish(self, phases: list[Phase]) -> None:
        run_sweep = _mod("repro.core.sweep").run_sweep
        self.reference = {
            plan.arch: records_digest(
                run_sweep(plan, backend="serial").records)
            for plan in self.plans
        }
        super().finish(phases)

    def peak_rss_mb(self) -> float:
        """The largest pool worker (every child is one)."""
        return (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024.0)


class ReplayAnalyze(Workload):
    """Warm-cache replay plus the analysis chain, per machine."""

    name = "replay-analyze"

    def setup(self) -> None:
        """Fill one cache with the three serial sweeps (they also pay
        the first-sweep warm-up; their records are the serial reference,
        as nothing is read from the empty cache) and run the analysis
        once per machine for the reference outputs."""
        run_sweep = _mod("repro.core.sweep").run_sweep
        SweepCache = _mod("repro.core.cache").SweepCache
        self.cache_dir = self.fresh_dir()
        self.reference = {}
        self.reference_analysis = {}
        for plan in self.plans:
            records = run_sweep(plan, backend="serial",
                                cache=SweepCache(self.cache_dir)).records
            self.reference[plan.arch] = records_digest(records)
            self.reference_analysis[plan.arch] = analysis_chain(records)

    def run_pass(self, phase: Phase) -> None:
        run_sweep = _mod("repro.core.sweep").run_sweep
        SweepCache = _mod("repro.core.cache").SweepCache
        for plan in self.plans:
            phase.attempted += 1
            cache = SweepCache(self.cache_dir)
            before = probe()
            start = clock()
            try:
                result = run_sweep(plan, cache=cache)
                analysis = analysis_chain(result.records)
            except Exception as exc:  # counted, reported, run goes on
                phase.fail(1, f"{plan.arch}: {type(exc).__name__}: {exc}")
                continue
            elapsed = clock() - start
            probe_s = bracket(before)
            phase.ops.append((plan.arch, elapsed, probe_s))
            phase.stretches.append((plan.arch, elapsed, len(result.records),
                                    1, probe_s))
            c = phase.counters
            c["cache.hits"] += cache.hits
            c["cache.misses"] += cache.misses
            c["cache.corrupt"] += len(cache.corrupt_keys)
            c["resilience.respawns"] += result.failure_report.worker_respawns
            c["resilience.retries"] += result.failure_report.n_attempts
            if records_digest(result.records) != self.reference[plan.arch]:
                phase.fail(1, f"{plan.arch}: replayed records differ from "
                              "the serial reference")
            elif analysis != self.reference_analysis[plan.arch]:
                phase.fail(1, f"{plan.arch}: analysis output differs")


def http_get(port: int, path: str, timeout: float = 60.0):
    """One request on its own connection: ``(status, parsed body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class ServeRecommend(Workload):
    """Two closed-loop clients against the tuning daemon.

    Untraced, the daemon is a ``repro-omp serve`` subprocess.  With
    ``in_process`` it runs in this process through
    ``repro.serve.harness.DaemonHandle``, where a tracer can reach it.
    """

    name = "serve-recommend"
    n_clients = 2
    #: Requests per second of ``--seconds`` (about the daemon's rate on
    #: a two-core machine, so a run lasts about ``--seconds``).
    REQUESTS_PER_S = 12

    def __init__(self, seed: int, work: Path, in_process: bool = False):
        super().__init__(seed, work)
        self.in_process = in_process
        self.process: subprocess.Popen | None = None
        self.handle = None
        self.port = 0

    def path(self, arch: str) -> str:
        return (f"/recommend?arch={arch}&scale=small&repetitions=3"
                f"&seed={self.seed}")

    def setup(self) -> None:
        """Start the daemon, fill its cache directory with the three
        serial sweeps (the reference: nothing is read from the empty
        cache), then send one warm-up request per machine and client
        and check it against the reference."""
        run_sweep = _mod("repro.core.sweep").run_sweep
        SweepCache = _mod("repro.core.cache").SweepCache
        self.cache_dir = self.fresh_dir()
        if self.in_process:
            self._start_in_process()
        else:
            self._start_subprocess()
        self.expected = {}
        self.n_records = {}
        for plan in self.plans:
            records = run_sweep(plan, backend="serial",
                                cache=SweepCache(self.cache_dir)).records
            self.expected[plan.arch] = recommendations(records)
            self.n_records[plan.arch] = len(records)
        self._wait_for_port()
        for arch in ARCHS:
            status, body = http_get(self.port, self.path(arch))
            if status != 200 or body.get("recommendations") != \
                    self.expected[arch]:
                raise RuntimeError(
                    f"warm-up /recommend for {arch} failed: {status}")

    def _start_in_process(self) -> None:
        app = _mod("repro.serve.app")
        harness = _mod("repro.serve.harness")
        self.handle = harness.DaemonHandle(app.DaemonConfig(
            backend="serial", cache_dir=str(self.cache_dir),
            rate_per_s=1e6, burst=1_000_000))
        self.port = self.handle.port

    def _start_subprocess(self) -> None:
        """Start ``repro-omp serve``; its imports overlap the fill."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = open(self.work / "daemon.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--backend", "serial", "--cache-dir", str(self.cache_dir),
             "--port-file", str(self.work / "port"),
             "--rate", "1000000", "--burst", "1000000"],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )

    def _wait_for_port(self) -> None:
        if self.process is None:
            return  # in-process: listening since construction
        port_file = self.work / "port"
        deadline = clock() + 60.0
        while not port_file.exists() or not port_file.read_text():
            if self.process.poll() is not None or clock() > deadline:
                raise RuntimeError("daemon did not start; see daemon.log")
            time.sleep(0.01)
        self.port = int(port_file.read_text())

    def health(self) -> dict:
        status, body = http_get(self.port, "/healthz")
        return body if status == 200 else {}

    def request(self, arch: str) -> tuple:
        """One timed round trip: ``(start, end, arch, status, ok)``."""
        start = clock()
        try:
            status, body = http_get(self.port, self.path(arch))
        except (OSError, http.client.HTTPException,
                json.JSONDecodeError) as exc:
            status, body = 0, {"error": repr(exc)}
        end = clock()
        ok = (status == 200
              and body.get("recommendations") == self.expected[arch])
        return start, end, arch, status, ok

    def measure(self, seconds: float, floor: int = MIN_SAMPLES) -> Phase:
        """Rounds in which each client sends one request, for a fixed
        request count sized from ``seconds`` at ``REQUESTS_PER_S``.  A
        fixed count keeps the daemon's retained jobs, and so its memory,
        the same in every run.

        Both clients ask for the same machine in a round, so the second
        request joins the first's job and the share of coalesced
        requests does not depend on timing (requests for different
        machines coalesce only when they happen to overlap).  Between
        rounds nothing is in flight, and the CPU-speed probe runs there:
        each round's times are scaled by the probes around it."""
        phase = Phase()
        samples: list[tuple] = []
        total = max(floor, round(seconds * self.REQUESTS_PER_S))
        rounds = -(-total // self.n_clients)
        before = self.health()
        with ThreadPoolExecutor(self.n_clients) as pool:
            for i in range(rounds):
                arch = ARCHS[i % len(ARCHS)]
                probe_before = probe()
                start = clock()
                done = list(pool.map(self.request,
                                     [arch] * self.n_clients))
                elapsed = clock() - start
                probe_s = bracket(probe_before)
                samples.extend(done)
                ok = [s for s in done if s[4]]
                phase.ops.extend((arch, s[1] - s[0], probe_s) for s in ok)
                phase.stretches.append((arch, elapsed,
                                        len(ok) * self.n_records[arch],
                                        len(ok), probe_s))
                for *_, status, good in done:
                    if not good:
                        phase.fail(1, f"{arch}: status {status}"
                                   if status != 200
                                   else f"{arch}: recommendations differ")
        after = self.health()
        phase.passes = len(samples)
        phase.attempted = len(samples)
        c = phase.counters
        c["serve.rejected"] = sum(1 for s in samples if s[3] != 200)
        for section, key, name in (
                ("coalescer", "coalesced", "serve.coalesced"),
                ("coalescer", "created", "serve.jobs_created"),
                ("cache", "hits", "cache.hits"),
                ("cache", "misses", "cache.misses"),
                ("cache", "corrupt", "cache.corrupt")):
            c[name] = (after.get(section, {}).get(key, 0)
                       - before.get(section, {}).get(key, 0))
        self.samples = samples
        return phase

    def peak_rss_mb(self) -> float:
        """The daemon's high-water RSS (read after it exited)."""
        if self.in_process:
            return super().peak_rss_mb()
        return (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024.0)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.drain()
            self.handle = None
        if self.process is not None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(60.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process = None
            self.log.close()


def unattributed_ms_p50(samples: list[tuple],
                        intervals: list[tuple[str, float, float]]) -> float:
    """Median latency no daemon span covers.

    Each top-level span is charged to the requests whose client-side
    interval contains it, split evenly when two overlap; a request's
    unattributed time is its latency minus what it was charged.
    """
    charged = [0.0] * len(samples)
    for _name, s_start, s_end in intervals:
        owners = [i for i, s in enumerate(samples)
                  if s[0] <= s_start and s_end <= s[1]]
        for i in owners:
            charged[i] += (s_end - s_start) / len(owners)
    rest = [(s[1] - s[0] - charged[i]) * 1e3
            for i, s in enumerate(samples) if s[4]]
    return statistics.median(rest) if rest else 0.0


WORKLOADS = {cls.name: cls for cls in
             (SweepCold, SweepParallel, ReplayAnalyze, ServeRecommend)}
