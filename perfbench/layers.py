"""Which program functions make up each layer, and the per-layer metrics.

:func:`install` wraps every layer's public functions in a
:class:`~tracing.Tracer` at the names their callers resolve.
:func:`metrics` turns the tracer's span stats plus the counters a
workload gathers itself into the per-layer metric table, normalized to
one pass of the workload.
"""

from __future__ import annotations

import importlib

from tracing import Tracer

#: Span name -> the per-layer stats reported for it.
SPAN_STATS = {
    "envspace.grid": ("calls", "busy_s"),
    "sweep.equivalence_groups": ("calls", "busy_s"),
    "runtime.executor_init": ("calls", "busy_s"),
    "runtime.resolve_icvs": ("calls", "busy_s"),
    "runtime.execute": ("calls", "busy_s"),
    "arch.placement_derived": ("calls", "busy_s"),
    "runtime.noise": ("calls", "busy_s"),
    "frame.pack": ("calls", "busy_s", "records"),
    "frame.unpack": ("calls", "busy_s", "records"),
    "frame.group_by": ("calls", "busy_s"),
    "resilience.stream": ("wait_s", "batches"),
    "resilience.close": ("busy_s",),
    "cache.get": ("calls", "busy_s"),
    "cache.put": ("calls", "busy_s"),
    "dataset.records_to_table": ("calls", "busy_s", "rows"),
    "dataset.aggregate_runs": ("busy_s",),
    "dataset.enrich_with_speedup": ("busy_s",),
    "labeling.label_optimal": ("busy_s",),
    "influence.by_application": ("busy_s",),
    "influence.by_architecture": ("busy_s",),
    "influence.by_arch_application": ("busy_s",),
    "mlkit.logreg_fit": ("calls", "busy_s"),
    "recommend.best_variable_values": ("calls", "busy_s"),
    "recommend.worst_trends": ("busy_s",),
    "serve.run_sweep": ("busy_s",),
    "serve.render": ("busy_s",),
}

#: Counters a workload gathers itself (from results, cache stats and
#: the daemon), by metric name.
COUNTERS = (
    "sweep.configs_simulated",
    "sweep.configs_pruned",
    "resilience.respawns",
    "resilience.retries",
    "cache.hits",
    "cache.misses",
    "cache.bytes_written",
    "cache.corrupt",
    "serve.coalesced",
    "serve.jobs_created",
    "serve.rejected",
)

#: Ratios of the counters above.
RATIOS = ("sweep.prune_ratio", "cache.hit_ratio")

#: Figures the traced run computes itself, not per pass.
REPORTED = (
    "serve.unattributed_ms_p50",
    "trace.overhead_records_per_s",
    "trace.overhead_op_ms_p50",
)

#: Spans whose calls run inside pool worker processes on sweep-parallel,
#: where a tracer in the parent cannot see them.
WORKER_SIDE = (
    "runtime.executor_init", "runtime.resolve_icvs", "runtime.execute",
    "arch.placement_derived", "runtime.noise", "frame.pack",
)


def _len_arg(args, _result) -> int:
    return len(args[0])


def _len_result(_args, result) -> int:
    return len(result)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public functions; returns ``tracer``."""
    mod = importlib.import_module
    sweep = mod("repro.core.sweep")
    cache = mod("repro.core.cache")
    envspace = mod("repro.core.envspace")
    executor = mod("repro.runtime.executor")
    icv = mod("repro.runtime.icv")
    affinity = mod("repro.runtime.affinity")
    table = mod("repro.frame.table")
    backends = mod("repro.resilience.backends")
    supervisor = mod("repro.resilience.supervisor")
    dataset = mod("repro.core.dataset")
    labeling = mod("repro.core.labeling")
    influence = mod("repro.core.influence")
    logreg = mod("repro.mlkit.logreg")
    recommend = mod("repro.core.recommend")
    app = mod("repro.serve.app")
    render = mod("repro.serve.render")

    tracer.wrap_attr(envspace.EnvSpace, "grid", "envspace.grid")
    tracer.wrap_everywhere(sweep.equivalence_groups,
                           "sweep.equivalence_groups")
    tracer.wrap_attr(executor.RuntimeExecutor, "__init__",
                     "runtime.executor_init")
    tracer.wrap_everywhere(icv.resolve_icvs, "runtime.resolve_icvs")
    tracer.wrap_attr(executor.RuntimeExecutor, "execute", "runtime.execute")
    for prop in ("oversubscription", "max_oversubscription", "n_numa_used"):
        tracer.wrap_attr(affinity.ThreadPlacement, prop,
                         "arch.placement_derived")
    tracer.wrap_everywhere(executor.apply_measurement_noise, "runtime.noise")
    tracer.wrap_everywhere(sweep.sweep_records_to_block, "frame.pack",
                           count=_len_arg)
    tracer.wrap_everywhere(sweep.sweep_block_to_records, "frame.unpack",
                           count=_len_result)
    tracer.wrap_attr(table.Table, "group_by", "frame.group_by")
    for cls in (supervisor.Supervisor, backends.SerialBackend,
                backends.NodesBackend):
        tracer.wrap_attr(cls, "stream", "resilience.stream", iterate=True)
    for cls in (supervisor.Supervisor, backends.ExecutorBackend,
                backends.NodesBackend):
        tracer.wrap_attr(cls, "close", "resilience.close")
    tracer.wrap_attr(cache.SweepCache, "get", "cache.get")
    tracer.wrap_attr(cache.SweepCache, "put", "cache.put")
    tracer.wrap_everywhere(dataset.records_to_table,
                           "dataset.records_to_table", count=_len_result)
    tracer.wrap_everywhere(dataset.aggregate_runs, "dataset.aggregate_runs")
    tracer.wrap_everywhere(dataset.enrich_with_speedup,
                           "dataset.enrich_with_speedup")
    tracer.wrap_everywhere(labeling.label_optimal, "labeling.label_optimal")
    for fn in ("application", "architecture", "arch_application"):
        tracer.wrap_everywhere(getattr(influence, f"influence_by_{fn}"),
                               f"influence.by_{fn}")
    tracer.wrap_attr(logreg.LogisticRegression, "fit", "mlkit.logreg_fit")
    tracer.wrap_everywhere(recommend.best_variable_values,
                           "recommend.best_variable_values")
    tracer.wrap_everywhere(recommend.worst_trends, "recommend.worst_trends")
    # Only the daemon's binding: the sweep workloads time their own
    # run_sweep calls as the end-to-end operation.
    tracer.wrap_attr(app, "run_sweep", "serve.run_sweep")
    tracer.wrap_attr(render, "recommend_payload", "serve.render")
    tracer.wrap_attr(render, "job_payload", "serve.render")
    return tracer


def names() -> list[str]:
    """Every per-layer metric name, in report order."""
    out = []
    for span, stats in SPAN_STATS.items():
        out.extend(f"{span}.{stat}" for stat in stats)
    return out + list(COUNTERS) + list(RATIOS) + list(REPORTED)


def count_names() -> list[str]:
    """The per-layer metrics that are counts, which repeat exactly for a
    given seed (``expected_counts.json`` records them at seed 0)."""
    return [n for n in names()
            if n.rsplit(".", 1)[1] in ("calls", "records", "rows", "batches")
            or n in COUNTERS]


def metrics(tracer: Tracer, passes: int, counters: dict,
            reported: dict) -> dict[str, float]:
    """Per-pass per-layer metrics from span stats and workload counters,
    plus the ``reported`` figures (see :data:`REPORTED`) as given."""
    out: dict[str, float] = {}
    for span, stats in SPAN_STATS.items():
        s = tracer.get(span)
        values = {"calls": s.calls, "busy_s": s.busy_s,
                  "wait_s": s.total_s, "records": s.items,
                  "rows": s.items, "batches": s.items}
        for stat in stats:
            out[f"{span}.{stat}"] = values[stat] / passes
    for name in COUNTERS:
        out[name] = counters.get(name, 0) / passes
    simulated = counters.get("sweep.configs_simulated", 0)
    pruned = counters.get("sweep.configs_pruned", 0)
    out["sweep.prune_ratio"] = (pruned / (simulated + pruned)
                                if simulated + pruned else 0.0)
    hits = counters.get("cache.hits", 0)
    lookups = hits + counters.get("cache.misses", 0)
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    for name in REPORTED:
        out[name] = reported.get(name, 0.0)
    return out
