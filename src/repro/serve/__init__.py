"""Tuning-as-a-service: the daemon behind ``repro-omp serve``.

The ROADMAP's north star is serving the paper's end product — "set
``KMP_LIBRARY=turnaround`` for NQueens" — to heavy multi-tenant
traffic.  This package is that front door: a stdlib-only persistent
daemon over HTTP/JSON whose load-bearing design is robustness, not
features.

Layering (leaf to root):

- :mod:`repro.serve.limits` — token-bucket rate limiting per client
  key, and the package's **single** wall-clock read (every other module
  takes an injected clock, so the SIM001 determinism lint has exactly
  one reasoned waiver to cover).
- :mod:`repro.serve.breaker` — per-backend circuit breakers
  (closed → open on consecutive failures → half-open probes → closed)
  and the fleet → ``serial`` degradation ladder.
- :mod:`repro.serve.coalesce` — request coalescing: identical in-flight
  grid requests share one sweep, keyed by the plan's fields and the
  execution knobs, which fix the records within one daemon.
- :mod:`repro.serve.journal` — the append-only drain journal that makes
  queued jobs survive SIGTERM (and SIGKILL mid-drain) across a restart.
- :mod:`repro.serve.render` — pure response-payload builders (FLOW001
  result roots: they must never reach a clock or unseeded RNG).
- :mod:`repro.serve.queue` — the bounded job queue, worker threads,
  per-job deadline timers, and graceful drain.
- :mod:`repro.serve.app` — the HTTP front end (hand-rolled on
  ``asyncio.start_server``): routing, admission control, backpressure,
  streaming progress, slow-client shedding, SIGTERM drain.
- :mod:`repro.serve.harness` — an in-process daemon handle for tests,
  checks and benchmarks.

See ``docs/SERVING.md`` for the endpoint catalog and semantics.
"""

from repro.serve.app import DaemonConfig, TuningDaemon
from repro.serve.breaker import BackendLadder, CircuitBreaker
from repro.serve.coalesce import Coalescer, sweep_request_key
from repro.serve.harness import DaemonHandle
from repro.serve.journal import JobJournal
from repro.serve.limits import TokenBucket, wall_clock
from repro.serve.queue import Job, JobQueue

__all__ = [
    "BackendLadder",
    "CircuitBreaker",
    "Coalescer",
    "DaemonConfig",
    "DaemonHandle",
    "Job",
    "JobJournal",
    "JobQueue",
    "TokenBucket",
    "TuningDaemon",
    "sweep_request_key",
    "wall_clock",
]
