"""Fault-tolerant sweep execution (``repro.resilience``).

The paper's 240k+-sample campaigns are long-horizon measurement runs
where partial failure is the norm: workers crash, hang, or return
garbage, and on-disk cache entries rot.  This package keeps the sweep
engine producing results under all of it (see ``docs/RESILIENCE.md``):

- :mod:`repro.resilience.backends` — the three executor backends:
  in-process serial (the parity reference), the supervised pool, and a
  simulated multi-node cluster with round-robin home shards, work
  stealing and its steal/reassign :class:`ShardReport`; each is built
  from one task function, its :class:`FailureLedger` and its
  :class:`ChaosPlan` (or None), and injects and books every fault
  itself,
- :mod:`repro.resilience.supervisor` — the supervision core every
  backend runs (ledger-driven seeded retries and fail policy, in-order
  result streaming) and the process fleet under the pool and nodes
  backends: per-batch deadlines, death/hang detection and respawn over
  framed socket links, with chaos faults fired in the fleet process,
- :mod:`repro.resilience.transport` — the length-prefixed, checksummed
  frame protocol between the sweep parent and its fleet processes, with
  every failure mode typed and deadline-bounded,
- :mod:`repro.resilience.policy` — deterministic exponential backoff
  with seeded jitter (SIM002-clean: no global RNG),
- :mod:`repro.resilience.report` — per-batch failure accounting
  (attempts, causes, quarantine/recovery) rendered through the shared
  :mod:`repro.reporting` serializer,
- :mod:`repro.resilience.chaos` — seeded, replayable fault plans
  (worker crash/hang/corrupt payloads, node loss/partition, cache
  torn-writes/bit-flips) and how each fault is suffered, surfaced as
  ``repro-omp chaos`` and ``pytest -m chaos``.
"""

from repro.resilience.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    NodesBackend,
    ReassignEvent,
    SerialBackend,
    ShardReport,
    StealEvent,
)
from repro.resilience.chaos import (
    CACHE_FAULT_KINDS,
    CHAOS_CRASH_EXIT,
    CHAOS_NODE_LOST_EXIT,
    CHAOS_PARTITION_EXIT,
    FAULT_KINDS,
    NODE_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    ChaosFault,
    ChaosPlan,
    apply_cache_fault,
    corrupted_payload,
    trigger_node_fault,
    trigger_worker_fault,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import (
    FAILURE_KINDS,
    BatchAttempt,
    BatchFailure,
    FailureLedger,
    FailureReport,
)
from repro.resilience.supervisor import SupervisedTask, Supervisor

__all__ = [
    "RetryPolicy",
    "BatchAttempt",
    "BatchFailure",
    "FailureLedger",
    "FailureReport",
    "FAILURE_KINDS",
    "ChaosFault",
    "ChaosPlan",
    "FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "NODE_FAULT_KINDS",
    "CACHE_FAULT_KINDS",
    "CHAOS_CRASH_EXIT",
    "CHAOS_NODE_LOST_EXIT",
    "CHAOS_PARTITION_EXIT",
    "apply_cache_fault",
    "corrupted_payload",
    "trigger_worker_fault",
    "trigger_node_fault",
    "SupervisedTask",
    "Supervisor",
    "BACKEND_NAMES",
    "ExecutorBackend",
    "SerialBackend",
    "NodesBackend",
    "ShardReport",
    "StealEvent",
    "ReassignEvent",
]
