"""Deterministic chaos injection for the supervised sweep path.

A :class:`ChaosPlan` is a seeded, fully explicit list of faults keyed by
batch index (and, for worker faults, by attempt number), so every failure
scenario is *replayable*: the same plan against the same sweep produces
the same :class:`~repro.resilience.report.FailureReport`, which is what
the chaos determinism tests and the ``resilience-degrade-parity``
differential check rely on.

Seven fault kinds:

- ``crash`` — the worker process dies mid-batch (``os._exit``),
- ``hang`` — the worker sleeps past its deadline; the supervisor must
  kill and respawn it,
- ``corrupt-result`` — the worker returns a garbage payload; the
  supervisor's validation must catch it,
- ``cache-torn-write`` — the batch's cache entry is truncated after the
  write (a simulated power cut mid-``rename``-less write),
- ``cache-bit-flip`` — one byte of the entry is flipped on disk (media
  corruption); both cache faults must be detected by the cache's content
  checksum on the next read and quarantined to ``<key>.corrupt``,
- ``node-lost`` — a fleet process dies *mid-message*: it sends half a
  result frame and exits, so the parent sees a
  :class:`~repro.errors.TruncatedFrameError` and must respawn the
  process (or, on the nodes backend, reassign its shard),
- ``shard-partition`` — a process's link is severed between messages
  (abrupt socket close), the frame-boundary flavor of node loss.

Worker faults default to attempt 0 only, so a retry succeeds; a fault
with ``attempts=None`` applies to *every* attempt, which is how a poison
batch (quarantined after the retry budget) is modeled.

A backend is built with its plan and injects every fault itself, by
batch index and attempt, node fault first: a fleet process fires a node
fault at the transport and suffers a worker fault before it calls the
task function, and dies with the exit code :data:`CHAOS_EXIT_KINDS`
maps back to the kind; the in-process serial backend cannot survive a
real crash, hang or node loss, so it books the failure from
:data:`_SIMULATED_FAULTS` instead.  Every backend books a fault under
the same kind, and a corrupt result is :func:`corrupted_payload` on
every backend.

Service faults
--------------
The serving daemon (``repro-omp serve``) adds a second fault surface —
the request path rather than the batch path — modeled by
:class:`ServiceChaosPlan` with three kinds:

- ``slow-client`` — the client trickles its request (or stalls reading
  the response) past the daemon's header/body deadline; the daemon must
  shed it with ``408`` instead of pinning a connection slot,
- ``backend-death-mid-request`` — the executor backend dies while a
  served sweep is in flight (injected as a worker ``crash`` fault on a
  seeded batch); the breaker must count it and the job must still land
  correct records via retry or the degradation ladder,
- ``kill-during-drain`` — SIGTERM arrives mid-sweep and the process is
  killed again *during* the drain window; the journal must make the
  queued work resumable on restart.

Like batch chaos, service plans are seeded and fully explicit, so the
``service-degrade-parity`` check and the CLI scenario replay exactly.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.resilience.transport import send_truncated_frame

__all__ = [
    "WORKER_FAULT_KINDS",
    "NODE_FAULT_KINDS",
    "CACHE_FAULT_KINDS",
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "ServiceFault",
    "ServiceChaosPlan",
    "CHAOS_CRASH_EXIT",
    "CHAOS_NODE_LOST_EXIT",
    "CHAOS_PARTITION_EXIT",
    "CHAOS_EXIT_KINDS",
    "HANG_SLEEP_S",
    "CORRUPT_MARKER",
    "ChaosFault",
    "ChaosPlan",
    "trigger_worker_fault",
    "trigger_node_fault",
    "corrupted_payload",
    "apply_cache_fault",
]

WORKER_FAULT_KINDS = ("crash", "hang", "corrupt-result")
NODE_FAULT_KINDS = ("node-lost", "shard-partition")
CACHE_FAULT_KINDS = ("cache-torn-write", "cache-bit-flip")
FAULT_KINDS = WORKER_FAULT_KINDS + NODE_FAULT_KINDS + CACHE_FAULT_KINDS
#: Request-path fault kinds of the serving daemon (see module docstring).
SERVICE_FAULT_KINDS = (
    "slow-client",
    "backend-death-mid-request",
    "kill-during-drain",
)

#: Exit code a chaos-crashed worker dies with (shows up in the report).
CHAOS_CRASH_EXIT = 13
#: Exit code of a node that died mid-message (``node-lost`` fault).
CHAOS_NODE_LOST_EXIT = 23
#: Exit code of a node severed between messages (``shard-partition``).
CHAOS_PARTITION_EXIT = 24
#: The failure kind a fleet books for a process that died with a chaos
#: exit code (any other death is a ``crash``).
CHAOS_EXIT_KINDS = {
    CHAOS_CRASH_EXIT: "crash",
    CHAOS_NODE_LOST_EXIT: "node-lost",
    CHAOS_PARTITION_EXIT: "shard-partition",
}
#: How long a chaos hang sleeps — far past any sane batch deadline.
HANG_SLEEP_S = 3600.0
#: Sentinel in a chaos-corrupted worker payload.
CORRUPT_MARKER = "<chaos-corrupted>"


@dataclass(frozen=True)
class ChaosFault:
    """One planned fault.

    ``attempts`` is the tuple of attempt numbers the fault fires on
    (default: first attempt only), or None for every attempt (poison).
    Cache faults ignore ``attempts`` — they corrupt the entry once,
    after it is written.
    """

    kind: str
    batch_index: int
    attempts: tuple[int, ...] | None = (0,)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown chaos fault kind {self.kind!r}; have {FAULT_KINDS}"
            )
        if self.batch_index < 0:
            raise ConfigError("batch_index must be >= 0")

    def applies(self, attempt: int) -> bool:
        """Whether this fault fires on the given attempt number."""
        return self.attempts is None or attempt in self.attempts

    def describe(self) -> dict:
        """JSON-ready form of this fault."""
        return {
            "kind": self.kind,
            "batch_index": self.batch_index,
            "attempts": ("all" if self.attempts is None
                         else list(self.attempts)),
        }


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, replayable set of faults for one sweep."""

    seed: int = 0
    faults: tuple[ChaosFault, ...] = ()

    @classmethod
    def generate(
        cls,
        n_batches: int,
        seed: int = 0,
        crashes: int = 1,
        hangs: int = 1,
        corrupt_results: int = 0,
        cache_faults: int = 1,
        poison: int = 0,
        node_lost: int = 0,
        shard_partitions: int = 0,
    ) -> "ChaosPlan":
        """Draw a plan with the given fault counts on distinct batches.

        Deterministic for a given ``(seed, n_batches, counts)``: the
        target indices come from ``random.Random(f"chaos:{seed}")``,
        never from global RNG state.  Poison faults are crashes with
        ``attempts=None`` — they defeat every retry.
        """
        counts = {
            "crashes": crashes,
            "hangs": hangs,
            "corrupt_results": corrupt_results,
            "cache_faults": cache_faults,
            "poison": poison,
            "node_lost": node_lost,
            "shard_partitions": shard_partitions,
        }
        for name, count in counts.items():
            if count < 0:
                raise ConfigError(f"{name} must be >= 0")
        needed = sum(counts.values())
        if needed > n_batches:
            raise ConfigError(
                f"plan needs {needed} distinct batches but the sweep has "
                f"only {n_batches}"
            )
        rng = random.Random(f"chaos:{seed}")
        indices = iter(rng.sample(range(n_batches), needed))
        faults = []
        for _ in range(crashes):
            faults.append(ChaosFault("crash", next(indices)))
        for _ in range(hangs):
            faults.append(ChaosFault("hang", next(indices)))
        for _ in range(corrupt_results):
            faults.append(ChaosFault("corrupt-result", next(indices)))
        for _ in range(cache_faults):
            faults.append(
                ChaosFault(rng.choice(CACHE_FAULT_KINDS), next(indices),
                           attempts=None)
            )
        for _ in range(poison):
            faults.append(ChaosFault("crash", next(indices), attempts=None))
        for _ in range(node_lost):
            faults.append(ChaosFault("node-lost", next(indices)))
        for _ in range(shard_partitions):
            faults.append(ChaosFault("shard-partition", next(indices)))
        ordered = tuple(
            sorted(faults, key=lambda f: (f.batch_index, f.kind))
        )
        return cls(seed=seed, faults=ordered)

    def worker_fault(self, batch_index: int, attempt: int) -> str | None:
        """The worker-side fault kind to inject for this attempt, if any."""
        for fault in self.faults:
            if (fault.kind in WORKER_FAULT_KINDS
                    and fault.batch_index == batch_index
                    and fault.applies(attempt)):
                return fault.kind
        return None

    def node_fault(self, batch_index: int, attempt: int) -> str | None:
        """The node-level fault kind to inject for this attempt, if any."""
        for fault in self.faults:
            if (fault.kind in NODE_FAULT_KINDS
                    and fault.batch_index == batch_index
                    and fault.applies(attempt)):
                return fault.kind
        return None

    def attempt_fault(self, batch_index: int, attempt: int) -> str | None:
        """The fault a backend injects for this attempt, if any: the
        node fault first, else the worker fault."""
        return (self.node_fault(batch_index, attempt)
                or self.worker_fault(batch_index, attempt))

    def cache_fault(self, batch_index: int) -> str | None:
        """The cache-entry fault to apply after this batch's put, if any."""
        for fault in self.faults:
            if (fault.kind in CACHE_FAULT_KINDS
                    and fault.batch_index == batch_index):
                return fault.kind
        return None

    def describe(self) -> list[dict]:
        """JSON-ready fault list (the report's ``injected`` section)."""
        return [f.describe() for f in self.faults]

    def to_dict(self) -> dict:
        """JSON-ready form; invert with :meth:`from_dict`."""
        return {"seed": self.seed, "faults": self.describe()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        try:
            faults = tuple(
                ChaosFault(
                    kind=f["kind"],
                    batch_index=f["batch_index"],
                    attempts=(None if f.get("attempts") == "all"
                              else tuple(f.get("attempts", (0,)))),
                )
                for f in payload["faults"]
            )
            return cls(seed=payload["seed"], faults=faults)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed chaos plan: {exc}") from exc


# ----------------------------------------------------------------------
# Injection
# ----------------------------------------------------------------------
def trigger_worker_fault(kind: str) -> None:
    """Execute a worker-side fault *inside the worker process*."""
    if kind == "crash":
        os._exit(CHAOS_CRASH_EXIT)
    if kind == "hang":
        time.sleep(HANG_SLEEP_S)


def trigger_node_fault(kind: str, sock, task_id: int) -> None:
    """Die the way the given node fault dies, at the transport layer.

    ``node-lost`` sends half of the result frame for ``task_id`` before
    exiting, so the parent reads a truncated frame; ``shard-partition``
    closes the link between messages, so the parent reads EOF at a frame
    boundary.  Either way the process exits with its fault's code.
    """
    if kind == "node-lost":
        try:
            send_truncated_frame(sock, ("result", task_id, "ok", None))
        finally:
            os._exit(CHAOS_NODE_LOST_EXIT)
    if kind == "shard-partition":
        sock.close()
        os._exit(CHAOS_PARTITION_EXIT)
    raise ConfigError(f"unknown node fault kind {kind!r}")


#: How the serial backend books each fault it cannot survive for real:
#: the kind a fleet would record, and the cause.
_SIMULATED_FAULTS = {
    "crash": ("crash", "injected worker crash (serial mode, exit "
                       f"{CHAOS_CRASH_EXIT})"),
    "hang": ("timeout",
             "injected hang exceeded the batch deadline (serial mode)"),
    "node-lost": ("node-lost", "injected node loss (serial mode, exit "
                               f"{CHAOS_NODE_LOST_EXIT})"),
    "shard-partition": ("shard-partition", "injected shard partition "
                        f"(serial mode, exit {CHAOS_PARTITION_EXIT})"),
}


def corrupted_payload(batch_index: int) -> list:
    """What a chaos-corrupted worker returns instead of records."""
    return [CORRUPT_MARKER, batch_index]


# ----------------------------------------------------------------------
# Service-layer chaos (request path of the serving daemon)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceFault:
    """One planned request-path fault.

    ``request_index`` is the 0-based position in the scenario's request
    sequence the fault attaches to; ``batch_index`` (only meaningful for
    ``backend-death-mid-request``) is the sweep batch the injected
    worker crash targets.
    """

    kind: str
    request_index: int
    batch_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ConfigError(
                f"unknown service fault kind {self.kind!r}; "
                f"have {SERVICE_FAULT_KINDS}"
            )
        if self.request_index < 0:
            raise ConfigError("request_index must be >= 0")
        if self.batch_index < 0:
            raise ConfigError("batch_index must be >= 0")

    def describe(self) -> dict:
        """JSON-ready form of this fault."""
        return {
            "kind": self.kind,
            "request_index": self.request_index,
            "batch_index": self.batch_index,
        }


@dataclass(frozen=True)
class ServiceChaosPlan:
    """A seeded, replayable set of request-path faults for one scenario.

    The daemon never consults this plan itself — the *client* side of
    the chaos scenario (``repro-omp chaos --serve`` and the CI scenario
    script) drives it: a ``slow-client`` fault makes the scripted client
    trickle bytes, a ``backend-death-mid-request`` fault rides in as a
    worker :class:`ChaosPlan` on the request's sweep, and a
    ``kill-during-drain`` fault SIGTERMs then SIGKILLs the daemon
    process.  Keeping the plan client-side means the daemon under test
    is the exact production code path, with zero test hooks.
    """

    seed: int = 0
    faults: tuple[ServiceFault, ...] = ()

    @classmethod
    def generate(
        cls,
        n_requests: int,
        n_batches: int,
        seed: int = 0,
        slow_clients: int = 1,
        backend_deaths: int = 1,
        drain_kills: int = 1,
    ) -> "ServiceChaosPlan":
        """Draw a plan with the given fault counts on distinct requests.

        Deterministic for a given ``(seed, n_requests, n_batches,
        counts)``: targets come from ``random.Random(f"svc:{seed}")``,
        never from global RNG state — same discipline as
        :meth:`ChaosPlan.generate`.
        """
        counts = {
            "slow_clients": slow_clients,
            "backend_deaths": backend_deaths,
            "drain_kills": drain_kills,
        }
        for name, count in counts.items():
            if count < 0:
                raise ConfigError(f"{name} must be >= 0")
        needed = sum(counts.values())
        if needed > n_requests:
            raise ConfigError(
                f"plan needs {needed} distinct requests but the "
                f"scenario has only {n_requests}"
            )
        if n_batches < 1:
            raise ConfigError("n_batches must be >= 1")
        rng = random.Random(f"svc:{seed}")
        indices = iter(rng.sample(range(n_requests), needed))
        faults = []
        for _ in range(slow_clients):
            faults.append(ServiceFault("slow-client", next(indices)))
        for _ in range(backend_deaths):
            faults.append(ServiceFault(
                "backend-death-mid-request", next(indices),
                batch_index=rng.randrange(n_batches),
            ))
        for _ in range(drain_kills):
            faults.append(ServiceFault("kill-during-drain", next(indices)))
        ordered = tuple(
            sorted(faults, key=lambda f: (f.request_index, f.kind))
        )
        return cls(seed=seed, faults=ordered)

    def fault_at(self, request_index: int) -> ServiceFault | None:
        """The fault attached to one scenario request, if any."""
        for fault in self.faults:
            if fault.request_index == request_index:
                return fault
        return None

    def describe(self) -> list[dict]:
        """JSON-ready fault list (the scenario report's section)."""
        return [f.describe() for f in self.faults]

    def to_dict(self) -> dict:
        """JSON-ready form; invert with :meth:`from_dict`."""
        return {"seed": self.seed, "faults": self.describe()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceChaosPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        try:
            faults = tuple(
                ServiceFault(
                    kind=f["kind"],
                    request_index=f["request_index"],
                    batch_index=f.get("batch_index", 0),
                )
                for f in payload["faults"]
            )
            return cls(seed=payload["seed"], faults=faults)
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                f"malformed service chaos plan: {exc}"
            ) from exc


def apply_cache_fault(path: str | os.PathLike, kind: str) -> None:
    """Corrupt one on-disk cache entry in place (supervisor side)."""
    path = Path(path)
    data = path.read_bytes()
    if kind == "cache-torn-write":
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif kind == "cache-bit-flip":
        mid = len(data) // 2
        flipped = bytes([data[mid] ^ 0x08])
        path.write_bytes(data[:mid] + flipped + data[mid + 1:])
    else:
        raise ConfigError(f"unknown cache fault kind {kind!r}")
