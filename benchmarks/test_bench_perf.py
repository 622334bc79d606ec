"""Performance benchmarks of the library's hot paths.

These are conventional pytest-benchmark timings (many rounds) for the
operations the sweep/analysis pipeline leans on; they guard against
regressions that would make paper-scale (full-grid) sweeps impractical.
"""

import dataclasses

import numpy as np
import pytest
from conftest import BENCH_SCALE

from repro.arch.machines import MILAN
from repro.core.envspace import EnvSpace
from repro.core.sweep import SweepRecord
from repro.desim.stealing import SpawnTree, WorkStealingSimulator
from repro.errors import DatasetError
from repro.frame.table import Table
from repro.mlkit.logreg import LogisticRegression
from repro.mlkit.preprocess import Standardizer
from repro.runtime.executor import RuntimeExecutor
from repro.runtime.icv import EnvConfig
from repro.stats.wilcoxon import wilcoxon_signed_rank
from repro.workloads.base import get_workload


def test_perf_executor_loop_workload(benchmark):
    """One CG execution: the sweep's unit of work for loop apps."""
    program = get_workload("cg").program("A")
    executor = RuntimeExecutor(MILAN, EnvConfig())
    result = benchmark(executor.execute, program)
    assert result > 0


def test_perf_executor_task_workload(benchmark):
    """One NQueens execution (analytic task model)."""
    program = get_workload("nqueens").program("large")
    executor = RuntimeExecutor(MILAN, EnvConfig())
    result = benchmark(executor.execute, program)
    assert result > 0


def test_perf_executor_construction(benchmark):
    """ICV resolution + placement: paid once per config in a sweep."""
    benchmark(RuntimeExecutor, MILAN, EnvConfig(places="ll_caches",
                                                proc_bind="spread"))


def test_perf_full_grid_enumeration(benchmark):
    """Enumerating the full 9,216-point Milan grid."""
    space = EnvSpace()
    configs = benchmark(lambda: list(space.full_grid(MILAN)))
    assert len(configs) == 9216


def test_perf_work_stealing_des(benchmark):
    """DES simulation of a ~3k-task tree on 48 workers."""
    tree = SpawnTree(depth=7, branching=3, leaf_work=2e-6, node_work=3e-7)
    sim = WorkStealingSimulator(n_workers=48, seed=0)
    result = benchmark(sim.run, tree)
    assert result.n_tasks == tree.n_tasks


def test_perf_logistic_fit(benchmark):
    """Logistic fit on a sweep-sized design (10k x 10)."""
    rng = np.random.default_rng(0)
    X = Standardizer().fit_transform(rng.normal(size=(10_000, 10)))
    w = rng.normal(size=10)
    y = (X @ w + rng.logistic(size=10_000) > 0).astype(float)

    def fit():
        return LogisticRegression(l2=1.0).fit(X, y)

    model = benchmark(fit)
    assert model.score(X, y) > 0.6


def test_perf_wilcoxon_large(benchmark):
    """Wilcoxon on 10k paired measurements (Table III scale)."""
    rng = np.random.default_rng(1)
    x = rng.lognormal(size=10_000)
    y = x * rng.lognormal(sigma=0.05, size=10_000)
    result = benchmark(wilcoxon_signed_rank, x, y)
    assert result.n_used == 10_000


def test_perf_table_groupby(benchmark):
    """Group-by over a 20k-row dataset (the analysis inner loop)."""
    rng = np.random.default_rng(2)
    n = 20_000
    table = Table(
        {
            "app": rng.choice(["cg", "bt", "mg", "ft"], size=n).astype(object),
            "arch": rng.choice(["a", "b", "c"], size=n).astype(object),
            "speedup": rng.lognormal(size=n),
        }
    )
    groups = benchmark(table.group_by, ["app", "arch"])
    assert len(groups) == 12


def _synthetic_dataset(n_settings: int, n_configs: int) -> Table:
    """A dataset-shaped table: n_settings x n_configs rows, one default
    configuration row per setting (what enrich_with_speedup requires)."""
    rng = np.random.default_rng(3)
    n = n_settings * n_configs
    unset = np.full(n, "unset", dtype=object)
    swept = unset.copy()
    swept[np.arange(n) % n_configs != 0] = "dynamic"
    return Table(
        {
            "arch": np.full(n, "milan", dtype=object),
            "app": np.asarray(
                [f"app{(i // n_configs) % 10}" for i in range(n)], dtype=object
            ),
            "suite": np.full(n, "synthetic", dtype=object),
            "input_size": np.asarray(
                [f"in{i // n_configs}" for i in range(n)], dtype=object
            ),
            "num_threads": np.full(n, 96, dtype=np.int64),
            "places": unset,
            "proc_bind": unset,
            "schedule": swept,
            "library": unset,
            "blocktime": unset,
            "force_reduction": unset,
            "align_alloc": np.zeros(n, dtype=np.int64),
            "runtime_mean": rng.lognormal(size=n),
        }
    )


def test_perf_enrich_speedup_10k(benchmark):
    """Speedup enrichment on a 10k-row dataset.

    The per-row Python lookup this replaced took ~4.5ms at this scale
    (the factorize-and-gather path measures ~1.5ms); this is the
    regression guard for full-grid (240k-sample) dataset construction.
    """
    from repro.core.dataset import enrich_with_speedup

    table = _synthetic_dataset(n_settings=50, n_configs=200)
    enriched = benchmark(enrich_with_speedup, table)
    speedup = np.asarray(enriched["speedup"], float)
    assert enriched.num_rows == 10_000
    assert np.isfinite(speedup).all() and (speedup > 0).all()


def test_perf_sweep_one_batch(benchmark):
    """One (workload, setting) batch: the streaming pool's unit of work."""
    from repro.core.sweep import SweepPlan, run_sweep

    plan = SweepPlan(arch="milan", workload_names=("cg",), scale="small",
                     repetitions=1, inputs_limit=1)
    result = benchmark(run_sweep, plan)
    assert result.n_samples > 0


def test_perf_sweep_cache_hit(benchmark, tmp_path):
    """A fully warmed resume: every batch served from the on-disk cache."""
    from repro.core.cache import SweepCache
    from repro.core.sweep import SweepPlan, run_sweep

    plan = SweepPlan(arch="milan", workload_names=("cg",), scale="small",
                     repetitions=1)
    cache = SweepCache(tmp_path / "cache")
    run_sweep(plan, cache=cache)

    result = benchmark(run_sweep, plan, cache=cache)
    assert result.n_computed_batches == 0
    assert result.n_cached_batches > 0


def test_perf_sweep_nodes_sharded(benchmark):
    """Sharded multi-node dispatch: the socket-transport backend on 2
    nodes, plus a one-shot node-count scaling series (``n_processes``
    1/2/4) recorded in BENCH_sweep.json.

    The series captures the fixed cost of node spawn + frame transport
    against the work-stealing win as nodes are added; the parity of the
    produced records is pinned separately by sharded-execution-parity.
    """
    import time

    from repro.core.sweep import SweepPlan, run_sweep

    plan = SweepPlan(arch="milan", workload_names=("cg",), scale="small",
                     repetitions=1, inputs_limit=1)
    result = benchmark(run_sweep, plan, n_processes=2, backend="nodes")
    assert result.backend == "nodes"
    assert result.n_shards == 2
    assert result.shard_report is not None

    scaling = {}
    for n_processes in (1, 2, 4):
        t0 = time.perf_counter()
        one = run_sweep(plan, n_processes=n_processes, backend="nodes")
        scaling[n_processes] = round(time.perf_counter() - t0, 4)
        assert one.block.to_bytes() == result.block.to_bytes()
    benchmark.extra_info["n_records"] = result.n_samples
    benchmark.extra_info["shard_scaling_s"] = \
        {str(k): v for k, v in scaling.items()}
    benchmark.extra_info["n_steals"] = result.shard_report.n_steals
    benchmark.extra_info["n_reassignments"] = \
        result.shard_report.n_reassignments


# ----------------------------------------------------------------------
# Record pipeline: dict-records baseline vs columnar blocks
# ----------------------------------------------------------------------
# Both chains replay the full journey of one sweep batch — pack on the
# worker, spool through the supervisor's pickle file, unpack on the
# consumer, tabulate — once as per-record dict rows
# (:func:`_record_to_dict`) and once with the columnar RecordBlock path.
# Timing and tracemalloc peaks land in BENCH_sweep.json (extra_info) as
# the throughput / peak-memory series; the floor test pins the ISSUE's
# >= 5x acceptance ratio.

_PIPELINE_N_RECORDS = {"small": 10_000, "medium": 50_000, "full": 200_000}


def _synthetic_records(n: int, repetitions: int = 3) -> list:
    """``n`` SweepRecords shaped like a large-grid milan sweep batch."""
    apps = ("cg", "ep", "xsbench", "lulesh", "nqueens")
    places = ("unset", "cores", "ll_caches")
    schedules = ("unset", "static", "dynamic", "guided")
    records = []
    for i in range(n):
        config = EnvConfig(
            num_threads=None if i % 3 == 0 else 48,
            places=places[i % 3],
            schedule=schedules[i % 4],
            align_alloc=None if i % 2 else 64,
        )
        records.append(SweepRecord(
            arch="milan", app=apps[i % 5], suite="NPB", input_size="A",
            num_threads=96, config=config,
            runtimes=tuple(1.0 + (i % 97) / 97 + j * 0.01
                           for j in range(repetitions)),
        ))
    return records


def _spool_roundtrip(obj, path):
    """One supervisor hop: pickle to a spool file, read it back."""
    import pickle

    with open(path, "wb") as handle:
        pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
    del obj
    with open(path, "rb") as handle:
        return pickle.load(handle)


#: EnvConfig fields in dict-row order.
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(EnvConfig))


def _record_to_dict(record: SweepRecord) -> dict:
    """One record as a JSON-ready dict row (the dict-records baseline)."""
    config = record.config
    return {
        "arch": record.arch,
        "app": record.app,
        "suite": record.suite,
        "input_size": record.input_size,
        "num_threads": record.num_threads,
        "config": {f: getattr(config, f) for f in _CONFIG_FIELDS},
        "runtimes": list(record.runtimes),
    }


def _record_from_dict(payload: dict) -> SweepRecord:
    """Inverse of :func:`_record_to_dict`."""
    return SweepRecord(
        arch=payload["arch"],
        app=payload["app"],
        suite=payload["suite"],
        input_size=payload["input_size"],
        num_threads=payload["num_threads"],
        config=EnvConfig(**payload["config"]),
        runtimes=tuple(payload["runtimes"]),
    )


def _records_to_table_rowwise(records) -> Table:
    """The dataset table built one dict row per record: the row-wise
    baseline :func:`~repro.core.dataset.records_to_table` is measured
    against."""
    n_runs = len(records[0].runtimes)
    rows = []
    for r in records:
        if len(r.runtimes) != n_runs:
            raise DatasetError(
                f"inconsistent repetition counts: {len(r.runtimes)} vs {n_runs}"
            )
        cfg = r.config
        row = {
            "arch": r.arch,
            "app": r.app,
            "suite": r.suite,
            "input_size": r.input_size,
            "num_threads": r.num_threads,
            "places": cfg.places,
            "proc_bind": cfg.proc_bind,
            "schedule": cfg.schedule,
            "library": cfg.library,
            "blocktime": cfg.blocktime,
            "force_reduction": cfg.force_reduction,
            # align None (unset) encoded as 0 so the column stays numeric.
            "align_alloc": cfg.align_alloc if cfg.align_alloc is not None else 0,
        }
        for i, rt in enumerate(r.runtimes):
            row[f"runtime_{i}"] = rt
        rows.append(row)
    return Table.from_records(rows)


def _dict_pipeline(records, spool_path):
    """Baseline: dict rows spooled, decoded and tabulated row-wise."""
    rows = _spool_roundtrip([_record_to_dict(r) for r in records],
                            spool_path)
    back = [_record_from_dict(d) for d in rows]
    del rows
    return _records_to_table_rowwise(back)


def _columnar_pipeline(records, spool_path):
    """The columnar path: one RecordBlock end to end, no dict rows."""
    from repro.core.dataset import records_to_table
    from repro.core.sweep import sweep_records_to_block

    block = _spool_roundtrip(sweep_records_to_block(records), spool_path)
    return records_to_table(block)


def _traced_peak(fn) -> int:
    """tracemalloc peak (bytes) of one ``fn()`` call."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_perf_record_pipeline_dict_records(benchmark, tmp_path):
    """Baseline series: dict-row batch through spool, decode, tabulate."""
    n = _PIPELINE_N_RECORDS.get(BENCH_SCALE, 50_000)
    records = _synthetic_records(n)
    spool = tmp_path / "spool.pkl"

    table = benchmark(_dict_pipeline, records, spool)
    assert table.num_rows == n
    best = benchmark.stats.stats.min
    benchmark.extra_info["n_records"] = n
    benchmark.extra_info["records_per_s"] = round(n / best)
    benchmark.extra_info["peak_bytes"] = _traced_peak(
        lambda: _dict_pipeline(records, spool)
    )
    benchmark.extra_info["spool_bytes"] = spool.stat().st_size


def test_perf_record_pipeline_columnar(benchmark, tmp_path):
    """Columnar series: one RecordBlock through the identical hops."""
    from repro.core.sweep import sweep_records_to_block

    n = _PIPELINE_N_RECORDS.get(BENCH_SCALE, 50_000)
    records = _synthetic_records(n)
    spool = tmp_path / "spool.pkl"

    table = benchmark(_columnar_pipeline, records, spool)
    assert table.num_rows == n
    best = benchmark.stats.stats.min
    benchmark.extra_info["n_records"] = n
    benchmark.extra_info["records_per_s"] = round(n / best)
    benchmark.extra_info["peak_bytes"] = _traced_peak(
        lambda: _columnar_pipeline(records, spool)
    )
    benchmark.extra_info["spool_bytes"] = spool.stat().st_size
    benchmark.extra_info["block_nbytes"] = \
        sweep_records_to_block(records).nbytes()


def test_perf_columnar_vs_dict_floor(benchmark, tmp_path):
    """The acceptance ratio: columnar must beat dict rows by >= 5x.

    Measures both chains (best of three for time, tracemalloc for peak
    memory) and records the ratios in BENCH_sweep.json.  The full 5x
    floor is asserted at the ``full`` (large-grid, 200k-record) scale
    per the acceptance criterion; smaller CI scales use a 2.5x noise
    floor so shared-runner jitter cannot flake the build.  Measured
    ratios at all scales are ~6-12x throughput and ~7x peak memory.
    """
    import time

    n = _PIPELINE_N_RECORDS.get(BENCH_SCALE, 50_000)
    records = _synthetic_records(n)
    spool = tmp_path / "spool.pkl"

    def best_of(fn, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn(records, spool)
            best = min(best, time.perf_counter() - t0)
        return best

    columnar_table = benchmark(_columnar_pipeline, records, spool)
    columnar_s = benchmark.stats.stats.min
    dict_s = best_of(_dict_pipeline)
    dict_peak = _traced_peak(lambda: _dict_pipeline(records, spool))
    columnar_peak = _traced_peak(
        lambda: _columnar_pipeline(records, spool)
    )

    throughput_ratio = dict_s / columnar_s
    memory_ratio = dict_peak / columnar_peak
    benchmark.extra_info["n_records"] = n
    benchmark.extra_info["throughput_ratio"] = round(throughput_ratio, 2)
    benchmark.extra_info["memory_ratio"] = round(memory_ratio, 2)
    benchmark.extra_info["dict_records_per_s"] = round(n / dict_s)
    benchmark.extra_info["columnar_records_per_s"] = round(n / columnar_s)
    benchmark.extra_info["dict_peak_bytes"] = dict_peak
    benchmark.extra_info["columnar_peak_bytes"] = columnar_peak

    if n <= 50_000:  # parity spot-check; the check suite pins it fully
        assert (_dict_pipeline(records, spool).to_records()
                == columnar_table.to_records())
    floor = 5.0 if BENCH_SCALE == "full" else 2.5
    assert throughput_ratio >= floor, (
        f"columnar throughput only {throughput_ratio:.1f}x the dict "
        f"baseline (floor {floor}x at scale {BENCH_SCALE!r})"
    )
    assert memory_ratio >= floor, (
        f"columnar peak memory only {memory_ratio:.1f}x better than the "
        f"dict baseline (floor {floor}x at scale {BENCH_SCALE!r})"
    )


# ----------------------------------------------------------------------
# Serving layer: warm-cache recommend latency under concurrency
# ----------------------------------------------------------------------
# The daemon's interactive path — GET /recommend against a fully warmed
# sweep cache — measured at 1 / 8 / 64 concurrent clients over real HTTP
# round trips.  The per-level rps and p50/p99 latencies land in
# BENCH_sweep.json (extra_info); the floor assert pins the warm path to
# interactive territory (lenient: job completion is observed by a 20 ms
# poll, so every served recommend carries that floor on top of the
# cache-hit sweep itself).


def _percentile(sorted_s: list, q: float) -> float:
    idx = min(len(sorted_s) - 1, max(0, int(round(q * (len(sorted_s) - 1)))))
    return sorted_s[idx]


def test_perf_serve_recommend_warm(benchmark, tmp_path):
    import concurrent.futures
    import time

    from repro.serve.app import DaemonConfig
    from repro.serve.harness import DaemonHandle

    config = DaemonConfig(
        port=0, backend="serial", max_inflight=8, max_queued=512,
        deadline_s=120.0, rate_per_s=100_000.0, burst=200_000,
        cache_dir=str(tmp_path / "cache"), state_dir=str(tmp_path / "state"),
    )
    handle = DaemonHandle(config)
    path = ("/recommend?arch=milan&workload=nqueens&scale=small"
            "&repetitions=2&inputs_limit=1&deadline_s=120")
    try:
        status, warm = handle.request("GET", path, timeout=120)
        assert status == 200 and warm["recommendations"]

        def round_trip():
            t0 = time.perf_counter()
            st, _body = handle.request("GET", path, timeout=120)
            assert st == 200
            return time.perf_counter() - t0

        benchmark(round_trip)

        series = {}
        for clients in (1, 8, 64):
            n_requests = clients * (3 if clients < 64 else 1)
            t0 = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(clients) as pool:
                latencies = sorted(
                    f.result() for f in [
                        pool.submit(round_trip) for _ in range(n_requests)
                    ]
                )
            elapsed = time.perf_counter() - t0
            series[str(clients)] = {
                "n_requests": n_requests,
                "rps": round(n_requests / elapsed, 1),
                "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 1),
                "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 1),
            }
    finally:
        handle.stop()

    benchmark.extra_info["clients_series"] = series
    benchmark.extra_info["n_recommendations"] = len(warm["recommendations"])
    solo_p99_ms = series["1"]["p99_ms"]
    assert solo_p99_ms < 2_000.0, (
        f"warm-cache recommend p99 at 1 client is {solo_p99_ms:.0f} ms — "
        "the served interactive path has left interactive territory"
    )
