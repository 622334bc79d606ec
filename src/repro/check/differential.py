"""Differential and golden-trace checks.

Two oracle-free ways to catch regressions the example-based tests miss:

- **execution-path parity** — the same sweep plan replayed through the
  serial path, the multiprocess path, a cold cache (simulate + store) and
  a warm cache (load only) must produce bit-identical records.  Any
  nondeterminism, ordering sensitivity, or cache-serialization loss shows
  up as a record mismatch,
- **golden traces** — phase-level execution timelines for a pinned set of
  (machine, workload, config) cases, compared against blessed fixtures in
  ``tests/golden/``.  A numeric drift means the model changed; if the
  change is intentional, re-bless with ``repro check --suite differential
  --bless`` (or ``python -m repro.cli check --bless``) and review the
  fixture diff in the PR.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from itertools import zip_longest
from pathlib import Path

from repro.arch.machines import get_machine
from repro.core.cache import CACHE_FORMAT_VERSION, SweepCache
from repro.core.sweep import SweepPlan, run_sweep
from repro.errors import CheckFailure
from repro.frame.columns import RecordBlock
from repro.runtime.icv import UNSET, EnvConfig
from repro.runtime.trace import ExecutionTrace, trace_execution
from repro.workloads import get_workload

__all__ = [
    "GOLDEN_CASES",
    "default_golden_dir",
    "differential_parity",
    "pruning_parity",
    "resilience_degrade_parity",
    "columnar_pipeline_parity",
    "sharded_execution_parity",
    "service_degrade_parity",
    "golden_trace_check",
    "bless_golden_traces",
]

#: The string environment-variable columns of a dataset row.
_ENV_STRING_COLUMNS = ("places", "proc_bind", "schedule", "library",
                       "blocktime", "force_reduction")

#: Pinned golden-trace cases: id -> (arch, workload, input, EnvConfig).
#: Chosen to cover loop + task parallelism, all three machines, and the
#: wait-policy / schedule / reduction model paths.
GOLDEN_CASES: dict[str, tuple[str, str, str, EnvConfig]] = {
    "milan_cg_default": (
        "milan", "cg", "A", EnvConfig(num_threads=96),
    ),
    "skylake_xsbench_dynamic_turnaround": (
        "skylake", "xsbench", "default",
        EnvConfig(num_threads=40, schedule="dynamic",
                  library="turnaround"),
    ),
    "a64fx_nqueens_blocktime0_tree": (
        "a64fx", "nqueens", "small",
        EnvConfig(num_threads=48, blocktime="0", force_reduction="tree"),
    ),
    "milan_lulesh_spread_guided": (
        "milan", "lulesh", "default",
        EnvConfig(num_threads=48, places="cores", proc_bind="spread",
                  schedule="guided"),
    ),
}


def default_golden_dir() -> Path:
    """The repository's golden fixture directory (``tests/golden``).

    Resolved relative to the package source tree so the check works from
    any working directory of a source checkout; installed environments
    must pass an explicit directory.
    """
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def _quick_plan() -> SweepPlan:
    """A small but multi-path plan for parity replay (two workloads so the
    parallel path actually interleaves batches)."""
    return SweepPlan(arch="milan", workload_names=("cg", "ep"),
                     scale="small", repetitions=2, inputs_limit=2)


def full_plan() -> SweepPlan:
    """The deeper parity plan (``repro check`` without ``--quick``): a
    denser grid, more workloads, paper-level repetitions."""
    return SweepPlan(arch="milan",
                     workload_names=("cg", "ep", "xsbench", "nqueens"),
                     scale="medium", repetitions=3, inputs_limit=2)


def _require_same_block(
    what: str,
    reference: RecordBlock,
    candidate: RecordBlock,
    ref_name: str,
    name: str,
    hint: str = "",
) -> None:
    """Raise :class:`CheckFailure` unless ``candidate``'s bytes equal
    ``reference``'s.  Only a mismatch decodes rows, to name the first
    differing record — or interning/layout drift if the rows agree."""
    if candidate.to_bytes() == reference.to_bytes():
        return
    from repro.core.sweep import sweep_block_to_records

    ref, got = (sweep_block_to_records(b) if len(b) else []
                for b in (reference, candidate))
    differ = [i for i, (a, b) in enumerate(zip_longest(ref, got)) if a != b]
    if not differ:
        raise CheckFailure(f"{what}: records equal, block bytes differ "
                           f"(interning/layout drift){hint}")
    raise CheckFailure(
        f"{what}: {len(differ)} record(s) differ, first at index "
        f"{differ[0]} ({ref_name} {len(ref)} vs {name} {len(got)}){hint}"
    )


def differential_parity(plan: SweepPlan | None = None) -> dict:
    """Replay one plan through all execution paths; records must match."""
    plan = plan or _quick_plan()
    serial = run_sweep(plan)
    if not serial.n_samples:
        raise CheckFailure("differential plan produced no records")

    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        cache = SweepCache(Path(tmp) / "cache")
        paths = {
            "parallel": run_sweep(plan, n_processes=2),
            "cold-cache": run_sweep(plan, cache=cache),
            "warm-cache": run_sweep(plan, cache=cache),
        }
        if paths["warm-cache"].n_computed_batches != 0:
            raise CheckFailure(
                "warm-cache path recomputed "
                f"{paths['warm-cache'].n_computed_batches} batch(es); "
                "expected all from cache"
            )
    for name, result in paths.items():
        _require_same_block(f"{name} path diverged from serial",
                            serial.block, result.block, "serial", name)
    return {
        "details": f"{serial.n_samples} records bit-identical across "
                   f"serial/parallel/cold-cache/warm-cache",
        "n_records": serial.n_samples,
        "paths": sorted(paths),
    }


def pruning_parity(plan: SweepPlan | None = None) -> dict:
    """ICV-equivalence pruning must be invisible in the records.

    Runs one plan twice — pruned (the default: one model evaluation per
    resolved-ICV equivalence class, per-member noise on top) and unpruned
    (every grid point simulated) — and requires bit-identical records.
    Also requires that pruning actually pruned something: a grid with no
    equivalent spellings would make the check vacuous, and the default
    grids all contain them (``proc_bind=false`` vs unset,
    ``turnaround`` vs ``blocktime=infinite``, ``true`` vs ``spread``).
    """
    plan = plan or _quick_plan()
    pruned = run_sweep(dataclasses.replace(plan, prune=True))
    unpruned = run_sweep(dataclasses.replace(plan, prune=False))
    if not pruned.n_samples:
        raise CheckFailure("pruning-parity plan produced no records")
    if pruned.n_pruned_configs == 0:
        raise CheckFailure(
            "pruned sweep simulated every config "
            f"({pruned.n_simulated_configs}): the plan's grid exposes no "
            "ICV-equivalent spellings, so the check is vacuous"
        )
    if unpruned.n_pruned_configs != 0:
        raise CheckFailure(
            "unpruned sweep reported "
            f"{unpruned.n_pruned_configs} pruned config(s)"
        )
    _require_same_block(
        "pruned sweep diverged from exhaustive execution",
        pruned.block, unpruned.block, "pruned", "unpruned",
        hint=" — an execution-relevant ICV leaked out of "
             "ResolvedICVs.execution_signature()",
    )
    total = pruned.n_simulated_configs + pruned.n_pruned_configs
    return {
        "details": (
            f"{pruned.n_samples} records bit-identical; pruning "
            f"simulated {pruned.n_simulated_configs}/{total} configs "
            f"({pruned.n_pruned_configs} fanned out)"
        ),
        "n_records": pruned.n_samples,
        "n_simulated": pruned.n_simulated_configs,
        "n_pruned": pruned.n_pruned_configs,
    }


def resilience_degrade_parity(
    plan: SweepPlan | None = None, backend: str = "pool"
) -> dict:
    """Chaos degrade + resume must reproduce the fault-free sweep.

    Injects a seeded :class:`~repro.resilience.chaos.ChaosPlan` (a worker
    crash, a hang, a corrupt payload, a poison batch, and an on-disk
    cache corruption) into a degrade-mode sweep on the given executor
    ``backend``, then resumes over the same cache.  The resume must
    re-attempt the quarantined batch, catch the cache corruption via
    checksum, and yield records bit-identical to a clean exhaustive run —
    the guarantee that graceful degradation never silently alters the
    dataset, on every backend (the serial path *simulates* faults it
    cannot survive in-process; the nodes backend runs sharded).
    """
    from repro.core.sweep import plan_batches
    from repro.resilience import BACKEND_NAMES, ChaosPlan, RetryPolicy

    if backend not in BACKEND_NAMES:
        raise CheckFailure(
            f"unknown backend {backend!r}; have {BACKEND_NAMES}"
        )
    plan = plan or dataclasses.replace(
        _quick_plan(), workload_names=("cg", "ep", "nqueens")
    )
    n_batches = len(plan_batches(plan))
    chaos = ChaosPlan.generate(n_batches, seed=11, crashes=1, hangs=1,
                               corrupt_results=1, cache_faults=1, poison=1)
    retry = RetryPolicy(max_retries=2, base_delay_s=0.01, seed=11)
    clean = run_sweep(plan)
    if not clean.n_samples:
        raise CheckFailure("resilience-parity plan produced no records")

    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        degraded = run_sweep(
            plan, n_processes=2, cache=SweepCache(Path(tmp) / "cache"),
            fail_policy="degrade", chaos=chaos, retry=retry,
            batch_timeout_s=5.0, backend=backend,
        )
        if degraded.n_quarantined_batches == 0:
            raise CheckFailure(
                "chaos degrade run quarantined nothing — the poison fault "
                "did not fire, so the check is vacuous"
            )
        report = degraded.failure_report
        if report.n_failed_batches == 0:
            raise CheckFailure("chaos degrade run reported no failures")
        resume_cache = SweepCache(Path(tmp) / "cache")
        resumed = run_sweep(plan, cache=resume_cache,
                            fail_policy="degrade")
        if len(resume_cache.corrupt_keys) != 1:
            raise CheckFailure(
                "resume detected "
                f"{len(resume_cache.corrupt_keys)} corrupt cache "
                "entry(ies); the injected corruption must be caught by "
                "checksum (exactly 1)"
            )
    _require_same_block("degrade+resume diverged from the fault-free sweep",
                        clean.block, resumed.block, "clean", "resumed")
    return {
        "details": (
            f"{resumed.n_samples} records bit-identical after "
            f"{report.n_failed_batches} failed batch(es) "
            f"({report.n_quarantined} quarantined, "
            f"{report.n_recovered} recovered) and 1 cache corruption "
            f"on the {backend} backend"
        ),
        "backend": backend,
        "n_records": resumed.n_samples,
        "n_failed_batches": report.n_failed_batches,
        "n_quarantined": report.n_quarantined,
        "n_recovered": report.n_recovered,
    }


def _dataset_rows(records) -> list[dict]:
    """Row oracle of ``records_to_table``: one dict per record, in
    dataset column order, with ``align_alloc`` None encoded as 0 and one
    ``runtime_i`` per run."""
    rows = []
    for r in records:
        cfg = r.config
        row = {
            "arch": r.arch, "app": r.app, "suite": r.suite,
            "input_size": r.input_size, "num_threads": r.num_threads,
            "places": cfg.places, "proc_bind": cfg.proc_bind,
            "schedule": cfg.schedule, "library": cfg.library,
            "blocktime": cfg.blocktime,
            "force_reduction": cfg.force_reduction,
            "align_alloc": 0 if cfg.align_alloc is None else cfg.align_alloc,
        }
        row.update({f"runtime_{i}": t for i, t in enumerate(r.runtimes)})
        rows.append(row)
    return rows


def _default_runtimes(rows: list[dict]) -> list[float]:
    """Dict oracle of ``enrich_with_speedup``'s ``default_runtime``: the
    ``runtime_mean`` of each row's setting's all-unset row, from a dict
    keyed by setting and filled in row order, so a later default row
    overwrites an earlier one.  A setting without one raises
    ``KeyError``."""
    def setting(row: dict) -> tuple:
        return (row["arch"], row["app"], row["input_size"],
                row["num_threads"])

    defaults = {}
    for row in rows:
        if row["align_alloc"] == 0 and all(
                row[c] == UNSET for c in _ENV_STRING_COLUMNS):
            defaults[setting(row)] = row["runtime_mean"]
    return [defaults[setting(row)] for row in rows]


def columnar_pipeline_parity(
    plan: SweepPlan | None = None, backend: str = "serial"
) -> dict:
    """The packed columnar record path must be invisible end-to-end.

    One plan's merged :class:`~repro.frame.columns.RecordBlock` must come
    back byte for byte through the byte codec (what a cache entry stores)
    and a cache format v6 store and load, and each batch block through a
    decode into rows and a repack.  The dataset table, built from the
    decoded records and from the block, must equal a row oracle
    (:func:`_dataset_rows`), and its speedup enrichment a dict-keyed
    default-runtime oracle (:func:`_default_runtimes`).  The vectorized
    ``group_by`` is then compared against its hash-based python
    reference implementation on the enriched table.

    ``backend`` selects the executor the source records come from, so
    the same guarantees are pinned when blocks arrive in the pool's or
    the nodes backend's socket frames rather than from in-process
    execution.
    """
    from repro.core.dataset import enrich_with_speedup, records_to_table
    from repro.core.sweep import (
        sweep_block_to_records,
        sweep_records_to_block,
    )
    from repro.resilience import BACKEND_NAMES

    if backend not in BACKEND_NAMES:
        raise CheckFailure(
            f"unknown backend {backend!r}; have {BACKEND_NAMES}"
        )
    plan = plan or _quick_plan()
    result = run_sweep(plan, n_processes=2, backend=backend)
    block, records = result.block, []
    if not len(block):
        raise CheckFailure("columnar-parity plan produced no records")
    for batch in result.blocks:
        rows = sweep_block_to_records(batch)
        if sweep_records_to_block(rows).to_bytes() != batch.to_bytes():
            raise CheckFailure("pack/unpack round-trip altered a batch")
        records += rows
    data = block.to_bytes()
    if RecordBlock.from_bytes(data).to_bytes() != data:
        raise CheckFailure("columnar byte codec round-trip altered the block")

    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        cache = SweepCache(Path(tmp) / "cache")
        key = "f" * 64
        cache.put(key, block)
        hit = cache.get(key)
        if hit is None or hit.to_bytes() != data:
            raise CheckFailure(
                "cache format v6 round-trip altered the block bytes"
            )
        if cache.corrupt_keys:
            raise CheckFailure(
                "cache format v6 round-trip flagged a healthy entry as "
                "corrupt"
            )

    rows = _dataset_rows(records)
    for name, source in (("records", records), ("block", block)):
        table = records_to_table(source)
        if table.column_names != list(rows[0]) or table.to_records() != rows:
            raise CheckFailure(
                f"dataset table built from the {name} diverged from the "
                "row oracle"
            )
    enriched = enrich_with_speedup(table)
    got = enriched.to_records()
    defaults = _default_runtimes(got)
    if [r["default_runtime"] for r in got] != defaults or [
            r["speedup"] for r in got] != [
            d / r["runtime_mean"] for d, r in zip(defaults, got)]:
        raise CheckFailure(
            "speedup enrichment diverged from the dict-keyed "
            "default-runtime oracle"
        )

    keys = ["app", "input_size", "num_threads"]
    fast = enriched.group_by(keys)
    reference = enriched._group_by_python(keys)
    if [k for k, _ in fast] != [k for k, _ in reference] or any(
        a.to_records() != b.to_records()
        for (_, a), (_, b) in zip(fast, reference)
    ):
        raise CheckFailure(
            "vectorized group_by diverged from the python reference"
        )

    return {
        "details": (
            f"{len(records)} records bit-identical through "
            f"pack/codec/cache-v{CACHE_FORMAT_VERSION} hops; dataset "
            "table and speedups match "
            f"their row oracles; vectorized group_by ({len(fast)} groups) "
            "matches the python reference"
        ),
        "n_records": len(records),
        "n_groups": len(fast),
        "block_nbytes": block.nbytes(),
    }


def sharded_execution_parity(plan: SweepPlan | None = None) -> dict:
    """Every fleet × process count must be bit-identical to serial.

    The tentpole guarantee of the executor-backend abstraction: records
    are a function of the plan alone, never of the execution substrate.
    One plan runs serially once, then on the pool and the nodes backend
    at ``n_processes`` 1, 2 and 4, and each combination must reproduce
    the serial reference exactly — the fleets change *execution* order
    (worker races, work stealing, round-robin homes) but results
    always surface in submission order, and the columnar frame encoding
    must be lossless across every boundary (pool and nodes sockets).

    The same pin then extends to faulted execution: a seeded chaos plan
    with a poison batch, a node loss and a shard partition runs on the
    nodes backend under ``fail_policy="degrade"`` with a cache, and the
    resume over that cache must again match the serial reference.  The
    chaos leg is checked for non-vacuity (something was quarantined,
    and both node-fault kinds appear in the failure report).
    """
    from repro.core.sweep import plan_batches
    from repro.resilience import ChaosPlan, RetryPolicy

    plan = plan or _quick_plan()
    serial = run_sweep(plan)
    if not serial.n_samples:
        raise CheckFailure("sharded-parity plan produced no records")

    combos = ["serial"]
    for backend in ("pool", "nodes"):
        for n_processes in (1, 2, 4):
            result = run_sweep(plan, n_processes=n_processes,
                               backend=backend)
            combo = f"{backend}x{n_processes}"
            _require_same_block(
                f"backend={backend} processes={n_processes} diverged "
                "from the serial reference",
                serial.block, result.block, "serial", combo,
            )
            combos.append(combo)

    n_batches = len(plan_batches(plan))
    chaos = ChaosPlan.generate(n_batches, seed=7, crashes=0, hangs=0,
                               corrupt_results=0, cache_faults=0,
                               poison=1, node_lost=1, shard_partitions=1)
    retry = RetryPolicy(max_retries=1, base_delay_s=0.01, seed=7)
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        degraded = run_sweep(
            plan, n_processes=2, cache=SweepCache(Path(tmp) / "cache"),
            fail_policy="degrade", chaos=chaos, retry=retry,
            batch_timeout_s=5.0, backend="nodes",
        )
        if degraded.n_quarantined_batches == 0:
            raise CheckFailure(
                "nodes chaos degrade run quarantined nothing — the "
                "poison fault did not fire, so the check is vacuous"
            )
        report = degraded.failure_report
        kinds = {
            attempt.kind
            for failure in report.batches
            for attempt in failure.attempts
        }
        missing = {"node-lost", "shard-partition"} - kinds
        if missing:
            raise CheckFailure(
                "nodes chaos degrade run never observed "
                f"{sorted(missing)} fault(s); saw {sorted(kinds)}"
            )
        resumed = run_sweep(plan, cache=SweepCache(Path(tmp) / "cache"),
                            fail_policy="degrade")
    _require_same_block(
        "nodes chaos degrade+resume diverged from the serial reference",
        serial.block, resumed.block, "serial", "resumed",
    )
    return {
        "details": (
            f"{serial.n_samples} records bit-identical across "
            f"{len(combos)} backend×process combination(s) "
            f"({', '.join(combos)}); nodes degrade+resume under "
            f"node-lost/shard-partition chaos matched the serial "
            f"reference ({report.n_failed_batches} failed batch(es), "
            f"{report.n_quarantined} quarantined)"
        ),
        "n_records": serial.n_samples,
        "combinations": combos,
        "chaos_fault_kinds": sorted(kinds),
        "n_failed_batches": report.n_failed_batches,
        "n_quarantined": report.n_quarantined,
    }


def service_degrade_parity(plan: SweepPlan | None = None) -> dict:
    """Daemon-served sweeps must be record-identical to direct ones —
    through backend death *and* a kill-during-drain restart cycle.

    Ground truth is a fault-free direct :func:`run_sweep`.  Two served
    legs must reproduce it byte-for-byte via
    :func:`repro.serve.render.records_payload`:

    1. **degradation leg** — an all-attempt crash fault rides the pool
       backend; the circuit breaker must trip, the job must finish
       ``degraded`` on a fallback rung, and the failure report must be
       non-empty (vacuity guard: the fault really fired),
    2. **drain/restart leg** — a throttled sweep is interrupted by a
       graceful drain after its first batch lands, journaled, and
       resumed by a *new* daemon over the same cache and state
       directory.  The resumed run must mix cached (pre-drain) and
       computed (post-restart) batches — both counts nonzero, or the
       interruption was vacuous — and still match the ground truth.

    Together they pin the serving layer's core promise: no degradation
    or restart path may silently alter the dataset.
    """
    from repro.serve.app import DaemonConfig
    from repro.serve.harness import DaemonHandle
    from repro.serve.render import records_payload

    plan = plan or _quick_plan()
    plan_payload = {
        "arch": plan.arch,
        "workloads": (list(plan.workload_names)
                      if plan.workload_names else None),
        "scale": plan.scale,
        "repetitions": plan.repetitions,
        "inputs_limit": plan.inputs_limit,
        "seed": plan.seed,
    }
    direct = run_sweep(plan)
    if not direct.n_samples:
        raise CheckFailure("service-parity plan produced no records")
    truth = records_payload(direct.block)

    with tempfile.TemporaryDirectory(prefix="repro-check-serve-") as tmp:
        # Leg 1: backend death mid-request -> breaker -> degraded rung.
        handle = DaemonHandle(DaemonConfig(
            cache_dir=f"{tmp}/cache-degrade",
            state_dir=f"{tmp}/state-degrade",
            backend="pool", deadline_s=600.0, breaker_threshold=1,
        ))
        try:
            status, resp = handle.request("POST", "/sweep", body={
                "plan": plan_payload, "client": "check", "backend": "pool",
                "chaos": {"seed": 7, "faults": [
                    {"kind": "crash", "batch_index": 0, "attempts": "all"},
                ]},
            })
            if status != 202:
                raise CheckFailure(
                    f"degradation-leg submit refused: {status} {resp}"
                )
            final = handle.wait_for_state(
                resp["job_id"], ("done", "failed"), timeout_s=600.0
            )
            if final["state"] != "done":
                raise CheckFailure(
                    f"degradation-leg job ended {final['state']}: "
                    f"{final.get('error', '')}"
                )
            if not final["degraded"]:
                raise CheckFailure(
                    "degradation leg finished undegraded — the injected "
                    "backend death never fired, so the check is vacuous"
                )
            degrade_events = [
                e for e in handle.stream_events(resp["job_id"])
                if "degrade" in e
            ]
            if not degrade_events:
                raise CheckFailure(
                    "no degrade event was streamed for the dying backend"
                )
            status, served = handle.request(
                "GET", f"/jobs/{resp['job_id']}/records"
            )
            if served != truth:
                raise CheckFailure(
                    "degradation-leg records diverged from the direct "
                    f"sweep ({served.get('n_records')} vs "
                    f"{truth['n_records']})"
                )
            backend_used = final["backend_used"]
        finally:
            handle.drain()

        # Leg 2: drain mid-sweep, journal, restart, resume.
        drain_cfg = DaemonConfig(
            cache_dir=f"{tmp}/cache-drain",
            state_dir=f"{tmp}/state-drain",
            backend="serial", deadline_s=600.0, drain_grace_s=0.2,
        )
        handle = DaemonHandle(drain_cfg)
        interrupted: list[str] = []
        try:
            status, resp = handle.request("POST", "/sweep", body={
                "plan": plan_payload, "client": "check",
                "backend": "serial", "throttle_s": 0.25,
            })
            if status != 202:
                raise CheckFailure(
                    f"drain-leg submit refused: {status} {resp}"
                )
            job_id = resp["job_id"]
            handle.wait_for_events(job_id, 1, timeout_s=600.0)
        finally:
            interrupted = handle.drain().get("interrupted", [])
        if job_id not in interrupted:
            raise CheckFailure(
                f"drain did not interrupt the in-flight job {job_id} "
                f"(interrupted: {interrupted})"
            )
        revived = DaemonHandle(drain_cfg)
        try:
            if revived.daemon.resumed_job_ids != [job_id]:
                raise CheckFailure(
                    "restart resumed "
                    f"{revived.daemon.resumed_job_ids} instead of "
                    f"[{job_id!r}]"
                )
            final = revived.wait_for_state(
                job_id, ("done", "failed"), timeout_s=600.0
            )
            if final["state"] != "done":
                raise CheckFailure(
                    f"resumed job ended {final['state']}: "
                    f"{final.get('error', '')}"
                )
            summary = final.get("summary") or {}
            cached = summary.get("n_cached_batches", 0)
            computed = summary.get("n_computed_batches", 0)
            if cached == 0 or computed == 0:
                raise CheckFailure(
                    "resume was vacuous: "
                    f"{cached} cached / {computed} computed batch(es); "
                    "the drain must interrupt mid-sweep so the resumed "
                    "run mixes pre-drain cache hits with fresh work"
                )
            status, served = revived.request(
                "GET", f"/jobs/{job_id}/records"
            )
            if served != truth:
                raise CheckFailure(
                    "resumed records diverged from the direct sweep "
                    f"({served.get('n_records')} vs {truth['n_records']})"
                )
        finally:
            revived.drain()

    return {
        "details": (
            f"{truth['n_records']} records identical through backend "
            f"death (degraded to {backend_used} after "
            f"{len(degrade_events)} rung failure(s)) and a "
            f"drain/restart cycle ({cached} cached + {computed} "
            "computed batch(es) on resume)"
        ),
        "n_records": truth["n_records"],
        "degraded_backend": backend_used,
        "resume_cached_batches": cached,
        "resume_computed_batches": computed,
    }


def _compute_trace(case_id: str) -> ExecutionTrace:
    arch, workload_name, input_name, config = GOLDEN_CASES[case_id]
    program = get_workload(workload_name).program(input_name)
    return trace_execution(program, get_machine(arch), config)


def _compare_traces(case_id: str, golden: ExecutionTrace,
                    fresh: ExecutionTrace) -> None:
    if (golden.program, golden.arch, golden.config) != (
        fresh.program, fresh.arch, fresh.config
    ):
        raise CheckFailure(
            f"golden {case_id}: fixture identity "
            f"({golden.program}, {golden.arch}) does not match the case "
            f"definition ({fresh.program}, {fresh.arch}) — re-bless"
        )
    if len(golden.events) != len(fresh.events):
        raise CheckFailure(
            f"golden {case_id}: {len(fresh.events)} phases computed, "
            f"fixture has {len(golden.events)}"
        )
    for g, f in zip(golden.events, fresh.events):
        if (g.name, g.kind, g.trips) != (f.name, f.kind, f.trips):
            raise CheckFailure(
                f"golden {case_id}: phase {g.name!r} identity changed to "
                f"({f.name!r}, {f.kind!r}, trips={f.trips})"
            )
        for field in ("start_s", "duration_s"):
            gv, fv = getattr(g, field), getattr(f, field)
            if not math.isclose(gv, fv, rel_tol=1e-9, abs_tol=1e-15):
                raise CheckFailure(
                    f"golden {case_id}: phase {g.name!r} {field} drifted "
                    f"{gv!r} -> {fv!r} (model change? bless if intended)"
                )


def golden_trace_check(golden_dir: str | Path | None = None) -> dict:
    """Compare freshly computed traces against the blessed fixtures."""
    root = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    if not root.is_dir():
        raise CheckFailure(
            f"golden directory {root} does not exist — run the bless flow "
            "first (repro check --suite differential --bless)"
        )
    n_events = 0
    for case_id in sorted(GOLDEN_CASES):
        path = root / f"{case_id}.json"
        if not path.is_file():
            raise CheckFailure(
                f"golden fixture {path.name} missing from {root} — bless it"
            )
        try:
            golden = ExecutionTrace.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (json.JSONDecodeError, OSError) as exc:
            raise CheckFailure(
                f"golden fixture {path.name} unreadable: {exc}"
            ) from exc
        fresh = _compute_trace(case_id)
        _compare_traces(case_id, golden, fresh)
        n_events += len(fresh.events)
    return {
        "details": f"{len(GOLDEN_CASES)} golden traces, {n_events} phase "
                   "events match blessed fixtures",
        "n_cases": len(GOLDEN_CASES),
        "n_events": n_events,
    }


def bless_golden_traces(golden_dir: str | Path | None = None) -> list[str]:
    """(Re)write every golden fixture from the current model.

    Returns the paths written.  Review the resulting diff — blessing
    encodes the current model output as correct.
    """
    root = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for case_id in sorted(GOLDEN_CASES):
        trace = _compute_trace(case_id)
        path = root / f"{case_id}.json"
        path.write_text(
            json.dumps(trace.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(str(path))
    return written
