"""``repro-omp`` command-line interface.

Subcommands mirror the study's workflow:

- ``machines`` — print Table I (the machine models),
- ``sweep`` — run a sweep and write the dataset CSV,
- ``analyze`` — read a dataset CSV, print speedup summaries and influence
  heat maps (text), optionally write SVG figures,
- ``recommend`` — print per-app/arch tuning recommendations and worst
  trends from a dataset CSV,
- ``tune`` — hill-climb one workload on one machine, optionally with
  influence-guided pruning,
- ``release`` — package a dataset CSV as the per-(arch, app) file tree
  the paper open-sources,
- ``energy`` — runtime/energy/EDP profile of one workload across the
  headline configurations,
- ``microbench`` — EPCC-style per-construct overhead probes of the
  simulated runtime,
- ``trace`` — phase timeline of one run, optionally exported as Chrome
  trace JSON,
- ``check`` — run the simulation verification suites (invariants,
  metamorphic relations, differential parity + golden traces; see
  ``docs/TESTING.md``),
- ``lint`` — static analysis: configuration/program lint against the ICV
  derivation rules, ICV-equivalence pruning statistics, and the
  simulator's determinism self-lint (see ``docs/LINTING.md``),
- ``sanitize`` — static concurrency sanitizer: the RACE/DLK rules over
  the registered manifests or one environment, gated on error-severity
  findings (see ``docs/LINTING.md``),
- ``chaos`` — rehearse the sweep engine's failure handling: inject a
  seeded fault plan (worker crashes/hangs, corrupt payloads, node loss,
  shard partitions, cache corruption) into a degrade-mode sweep on any
  executor backend, then prove the resumed sweep is record-identical to
  a fault-free run (see ``docs/RESILIENCE.md``),
- ``workloads`` — the 15 benchmark models and their experimental design,
- ``figures`` — regenerate the paper's figure gallery (violins + heat
  maps) from a fresh sweep in one command,
- ``report`` — assemble a full Markdown study report from a dataset CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arch.machines import get_machine, hardware_table, machine_names
from repro.core.dataset import (
    aggregate_runs,
    enrich_with_speedup,
    records_to_table,
    speedup_summary,
)
from repro.core.envspace import EnvSpace
from repro.core.influence import (
    influence_by_application,
    influence_by_arch_application,
    influence_by_architecture,
)
from repro.core.labeling import label_optimal
from repro.core.pruning import hill_climb
from repro.core.recommend import best_variable_values, worst_trends
from repro.core.sweep import SweepPlan, run_sweep
from repro.errors import ReproError
from repro.frame.io import read_csv, write_csv
from repro.frame.table import Table
from repro.viz.heatmap import influence_heatmap
from repro.viz.text import text_heatmap
from repro.workloads.base import get_workload, workload_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-omp",
        description="LLVM/OpenMP runtime tuning study (SC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="print the machine models (Table I)")

    p_sweep = sub.add_parser("sweep", help="run a sweep, write dataset CSV")
    p_sweep.add_argument("--arch", required=True, choices=machine_names())
    p_sweep.add_argument(
        "--workloads", nargs="*", default=None,
        help=f"subset of {workload_names()} (default: all for the arch)",
    )
    p_sweep.add_argument("--scale", default="small",
                         choices=EnvSpace.SCALES)
    p_sweep.add_argument("--repetitions", type=int, default=3)
    p_sweep.add_argument("--processes", type=int, default=1,
                         help="pool workers or nodes; records are "
                              "bit-identical at any count (default: 1)")
    p_sweep.add_argument("--backend", default="auto",
                         choices=("auto", "serial", "pool", "nodes"),
                         help="executor backend: in-process 'serial', or "
                              "a supervised process fleet over socket "
                              "links — the worker 'pool' or simulated "
                              "'nodes' (default: auto — pool when "
                              "--processes > 1)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--fidelity", default="analytic",
                         choices=("analytic", "des"),
                         help="task-region fidelity (default: analytic)")
    p_sweep.add_argument("--inputs-limit", type=int, default=None,
                         help="cap settings per workload (quick runs)")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="persistent batch cache directory; batches "
                              "already cached are not re-simulated")
    p_sweep.add_argument("--resume", action="store_true",
                         help="resume from the batch cache (defaults "
                              "--cache-dir to <output>.cache)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="ignore the batch cache even if --cache-dir/"
                              "--resume is given")
    p_sweep.add_argument("--no-prune", action="store_true",
                         help="simulate every grid point instead of one "
                              "representative per ICV-equivalence class "
                              "(results are identical either way)")
    p_sweep.add_argument("--fail-policy", default="raise",
                         choices=("raise", "degrade"),
                         help="on a batch that exhausts its retries: "
                              "'raise' aborts the sweep, 'degrade' skips "
                              "the batch and reports it (default: raise)")
    p_sweep.add_argument("--max-retries", type=int, default=None,
                         help="retry budget per failing batch "
                              "(default: the RetryPolicy default)")
    p_sweep.add_argument("--batch-timeout-s", type=float, default=None,
                         help="per-batch deadline in seconds "
                              "(default: scaled by batch size)")
    p_sweep.add_argument("--fsync-cache", action="store_true",
                         help="fsync every cache entry to stable storage "
                              "(durability for long unattended campaigns)")
    p_sweep.add_argument("--failure-report", default=None,
                         help="write the JSON failure report here")
    p_sweep.add_argument("-o", "--output", required=True,
                         help="dataset CSV path")

    p_an = sub.add_parser("analyze", help="analyze a dataset CSV")
    p_an.add_argument("dataset", help="CSV written by 'sweep'")
    p_an.add_argument("--figures-dir", default=None,
                      help="write SVG heat maps here")

    p_rec = sub.add_parser("recommend", help="recommendations from a dataset")
    p_rec.add_argument("dataset")
    p_rec.add_argument("--app", default=None)
    p_rec.add_argument("--quantile", type=float, default=0.05)

    p_tune = sub.add_parser("tune", help="hill-climb one workload")
    p_tune.add_argument("--arch", required=True, choices=machine_names())
    p_tune.add_argument("--workload", required=True)
    p_tune.add_argument("--input", default=None)
    p_tune.add_argument("--threads", type=int, default=None)
    p_tune.add_argument("--restarts", type=int, default=2)
    p_tune.add_argument("--seed", type=int, default=0)

    p_rel = sub.add_parser("release", help="package a dataset for release")
    p_rel.add_argument("dataset", help="CSV written by 'sweep'")
    p_rel.add_argument("-o", "--output", required=True,
                       help="release directory")
    p_rel.add_argument("--version", default="1.0")

    p_en = sub.add_parser("energy", help="energy/EDP profile of a workload")
    p_en.add_argument("--arch", required=True, choices=machine_names())
    p_en.add_argument("--workload", required=True)
    p_en.add_argument("--input", default=None)

    p_mb = sub.add_parser("microbench",
                          help="EPCC-style runtime overhead probes")
    p_mb.add_argument("--library", default=None,
                      choices=(None, "throughput", "turnaround"))
    p_mb.add_argument("--threads", type=int, default=None)

    p_wl = sub.add_parser("workloads", help="list the benchmark models")
    p_wl.add_argument("--arch", default="milan", choices=machine_names())

    p_rep = sub.add_parser("report",
                           help="write REPORT.md from a dataset CSV")
    p_rep.add_argument("dataset", help="CSV written by 'sweep'")
    p_rep.add_argument("-o", "--output", required=True,
                       help="report directory")
    p_rep.add_argument("--title", default="LLVM/OpenMP tuning study")

    p_fig = sub.add_parser("figures",
                           help="regenerate the paper figure gallery")
    p_fig.add_argument("-o", "--output", required=True,
                       help="directory for the SVGs")
    p_fig.add_argument("--scale", default="small", choices=EnvSpace.SCALES)
    p_fig.add_argument("--apps", nargs="*",
                       default=("alignment", "bt", "health", "rsbench"),
                       help="violin-figure applications (paper: Figs 1, 5-7)")
    p_fig.add_argument("--repetitions", type=int, default=2)

    p_chk = sub.add_parser(
        "check", help="run the simulation verification suites"
    )
    p_chk.add_argument("--suite", default="all",
                       choices=("invariants", "metamorphic", "differential",
                                "all"),
                       help="which suite to run (default: all)")
    p_chk.add_argument("--quick", action="store_true",
                       help="scaled-down differential grid (what CI runs)")
    p_chk.add_argument("--golden-dir", default=None,
                       help="golden-trace fixture directory "
                            "(default: tests/golden of the source tree)")
    p_chk.add_argument("--bless", action="store_true",
                       help="regenerate the golden-trace fixtures from the "
                            "current model instead of checking")
    p_chk.add_argument("--format", default="text", dest="fmt",
                       choices=("text", "json"),
                       help="stdout format (default: text)")
    p_chk.add_argument("--report", default=None,
                       help="write a JSON check report here")

    p_lint = sub.add_parser(
        "lint", help="static analysis of configs, programs, and the simulator"
    )
    p_lint.add_argument("--self", action="store_true", dest="self_lint",
                        help="run the determinism self-lint over src/repro")
    p_lint.add_argument("--flow", action="store_true",
                        help="run the interprocedural effect-analysis plane "
                             "(FLOW001-FLOW003) over src/repro")
    p_lint.add_argument("--deps", action="store_true",
                        help="run the signature-soundness dependency plane "
                             "(KEY001-KEY004) over src/repro")
    p_lint.add_argument("--src", default=None,
                        help="source root for --self/--flow/--deps (default: "
                             "the installed repro package)")
    p_lint.add_argument("--arch", nargs="*", default=None,
                        choices=machine_names(),
                        help="lint the benchmark manifests on these machines")
    p_lint.add_argument("--workloads", nargs="*", default=None,
                        help=f"manifest subset of {workload_names()}")
    p_lint.add_argument("--env", action="append", default=[],
                        metavar="VAR=VALUE",
                        help="environment setting to lint (repeatable); "
                             "parsed exactly like a real environment")
    p_lint.add_argument("--stats", action="store_true",
                        help="print ICV-equivalence pruning statistics for "
                             "each selected arch's full grid")
    p_lint.add_argument("--scale", default="full", choices=EnvSpace.SCALES,
                        help="grid scale for --stats (default: full)")
    p_lint.add_argument("--format", default="text", dest="fmt",
                        choices=("text", "json"),
                        help="stdout format (default: text)")
    p_lint.add_argument("--report", default=None,
                        help="write a JSON findings report here")

    p_san = sub.add_parser(
        "sanitize",
        help="static concurrency sanitizer: RACE/DLK rules (fails on "
             "error-severity findings only)",
    )
    p_san.add_argument("--arch", nargs="*", default=None,
                       choices=machine_names(),
                       help="machines to sanitize (default: all)")
    p_san.add_argument("--workloads", nargs="*", default=None,
                       help=f"manifest subset of {workload_names()}")
    p_san.add_argument("--env", action="append", default=[],
                       metavar="VAR=VALUE",
                       help="sanitize one environment instead of the "
                            "registered manifests (repeatable)")
    p_san.add_argument("--format", default="text", dest="fmt",
                       choices=("text", "json"),
                       help="stdout format (default: text)")
    p_san.add_argument("--report", default=None,
                       help="write a JSON sanitize report here")

    p_ch = sub.add_parser(
        "chaos",
        help="rehearse sweep failure handling with seeded fault injection",
    )
    p_ch.add_argument("--arch", default="milan", choices=machine_names())
    p_ch.add_argument("--workloads", nargs="*",
                      default=("cg", "ep", "nqueens"),
                      help=f"subset of {workload_names()}")
    p_ch.add_argument("--scale", default="small", choices=EnvSpace.SCALES)
    p_ch.add_argument("--repetitions", type=int, default=2)
    p_ch.add_argument("--inputs-limit", type=int, default=2)
    p_ch.add_argument("--processes", type=int, default=2,
                      help="pool workers or nodes for the degrade pass "
                           "(1 under auto = serial fault simulation)")
    p_ch.add_argument("--backend", default="auto",
                      choices=("auto", "serial", "pool", "nodes"),
                      help="executor backend for the degrade pass "
                           "(default: auto — pool when --processes > 1)")
    p_ch.add_argument("--seed", type=int, default=0,
                      help="chaos plan seed; same seed, same faults, "
                           "same failure report")
    p_ch.add_argument("--crashes", type=int, default=1)
    p_ch.add_argument("--hangs", type=int, default=1)
    p_ch.add_argument("--corrupt-results", type=int, default=1)
    p_ch.add_argument("--cache-faults", type=int, default=1,
                      help="on-disk cache corruptions (torn write or "
                           "bit flip), detected on the resume pass")
    p_ch.add_argument("--poison", type=int, default=1,
                      help="batches that fail every attempt and must be "
                           "quarantined")
    p_ch.add_argument("--node-lost", type=int, default=0,
                      help="abrupt process deaths mid-result frame "
                           "(serial simulates them)")
    p_ch.add_argument("--shard-partitions", type=int, default=0,
                      help="shard network partitions (closed socket links) "
                           "recovered by reassignment")
    p_ch.add_argument("--max-retries", type=int, default=2)
    p_ch.add_argument("--batch-timeout-s", type=float, default=5.0)
    p_ch.add_argument("--cache-dir", default=None,
                      help="cache directory for the degrade+resume cycle "
                           "(default: a temporary directory)")
    p_ch.add_argument("--format", default="text", dest="fmt",
                      choices=("text", "json"),
                      help="stdout format (default: text)")
    p_ch.add_argument("--report", default=None,
                      help="write the JSON failure report here")
    p_ch.add_argument("--serve", action="store_true",
                      help="drive the serving daemon through the service "
                           "fault kinds (slow-client, backend-death-mid-"
                           "request, kill-during-drain) instead of a "
                           "direct sweep")
    p_ch.add_argument("--serve-requests", type=int, default=6,
                      help="scenario request count (--serve)")
    p_ch.add_argument("--slow-clients", type=int, default=1,
                      help="stalled-client faults to inject (--serve)")
    p_ch.add_argument("--backend-deaths", type=int, default=1,
                      help="mid-request backend deaths to inject (--serve)")
    p_ch.add_argument("--drain-kills", type=int, default=1,
                      help="SIGKILLs landed inside the drain window "
                           "(--serve)")
    p_ch.add_argument("--artifact-dir", default=None,
                      help="copy drain journals here for inspection "
                           "(--serve)")

    p_sv = sub.add_parser(
        "serve",
        help="run the tuning-as-a-service daemon (docs/SERVING.md)",
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8077,
                      help="listen port (0 = ephemeral; see --port-file)")
    p_sv.add_argument("--backend", default="serial",
                      choices=("auto", "serial", "pool", "nodes"),
                      help="default executor backend for served sweeps "
                           "(top of the degradation ladder)")
    p_sv.add_argument("--max-inflight", type=int, default=2,
                      help="sweeps running concurrently (worker threads)")
    p_sv.add_argument("--max-queued", type=int, default=16,
                      help="admission bound; beyond it, 429 Retry-After")
    p_sv.add_argument("--deadline-s", type=float, default=60.0,
                      help="default per-request deadline")
    p_sv.add_argument("--drain-grace-s", type=float, default=5.0,
                      help="grace a SIGTERM drain waits before cancelling")
    p_sv.add_argument("--header-timeout-s", type=float, default=5.0,
                      help="per-read timeout; slower clients get 408")
    p_sv.add_argument("--rate", type=float, default=50.0,
                      help="token-bucket refill per client key, per second")
    p_sv.add_argument("--burst", type=int, default=100,
                      help="token-bucket capacity per client key")
    p_sv.add_argument("--cache-dir", default=None,
                      help="sweep cache shared with the CLI (recommended)")
    p_sv.add_argument("--state-dir", default=None,
                      help="drain-journal directory; enables resume "
                           "across restarts")
    p_sv.add_argument("--breaker-threshold", type=int, default=3,
                      help="consecutive backend failures that open the "
                           "circuit breaker")
    p_sv.add_argument("--breaker-cooldown-s", type=float, default=30.0,
                      help="open-state cooldown before half-open probes")
    p_sv.add_argument("--port-file", default=None,
                      help="write the bound port here once listening")
    p_sv.add_argument("--fsync", action="store_true",
                      help="fsync journal and cache writes (durability)")

    p_tr = sub.add_parser("trace", help="phase timeline of one run")
    p_tr.add_argument("--arch", required=True, choices=machine_names())
    p_tr.add_argument("--workload", required=True)
    p_tr.add_argument("--input", default=None)
    p_tr.add_argument("--library", default=None,
                      choices=(None, "throughput", "turnaround"))
    p_tr.add_argument("-o", "--output", default=None,
                      help="write Chrome trace JSON here")
    return parser


def _cmd_machines() -> int:
    print(Table.from_records(hardware_table()).to_text())
    return 0


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _sweep_cache(args: argparse.Namespace):
    """The batch cache the sweep flags select, or None."""
    if args.no_cache:
        return None
    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = f"{args.output}.cache"
    if cache_dir is None:
        return None
    from repro.core.cache import SweepCache

    return SweepCache(cache_dir, fsync=getattr(args, "fsync_cache", False))


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    plan = SweepPlan(
        arch=args.arch,
        workload_names=tuple(args.workloads) if args.workloads else None,
        scale=args.scale,
        repetitions=args.repetitions,
        inputs_limit=args.inputs_limit,
        seed=args.seed,
        fidelity=args.fidelity,
        prune=not args.no_prune,
    )
    cache = _sweep_cache(args)
    start = time.monotonic()

    def progress(done: int, total: int, app: str, inp: str, threads: int) -> None:
        elapsed = time.monotonic() - start
        eta = elapsed / done * (total - done)
        print(f"  [{done:3d}/{total}] {app}.{inp} T={threads} "
              f"eta {_fmt_seconds(eta)}", flush=True)

    retry = None
    if args.max_retries is not None:
        from repro.resilience import RetryPolicy

        retry = RetryPolicy(max_retries=args.max_retries, seed=args.seed)
    result = run_sweep(plan, n_processes=args.processes, progress=progress,
                       cache=cache, fail_policy=args.fail_policy,
                       retry=retry, batch_timeout_s=args.batch_timeout_s,
                       backend=args.backend)
    table = enrich_with_speedup(aggregate_runs(records_to_table(result.block)))
    write_csv(table, args.output)
    rep = result.failure_report
    if rep is not None and not rep.clean:
        print(rep.format_text())
    if args.failure_report:
        from repro.reporting import write_report_file

        write_report_file(args.failure_report, failure_report=rep)
        print(f"failure report -> {args.failure_report}")
    if result.n_quarantined_batches:
        print(f"WARNING: {result.n_quarantined_batches} quarantined "
              f"batch(es) are missing from the dataset; rerun with the "
              f"same --cache-dir to retry them")
    if cache is not None:
        print(f"cache: {result.n_cached_batches} batches reused, "
              f"{result.n_computed_batches} simulated -> {cache.root}")
    if result.shard_report is not None:
        sr = result.shard_report
        print(f"shards: {sr.n_shards} lane(s) on the {result.backend} "
              f"backend, {sr.n_steals} steal(s), "
              f"{sr.n_reassignments} reassignment(s), "
              f"{sr.node_respawns} node respawn(s)")
    if result.n_pruned_configs:
        total = result.n_simulated_configs + result.n_pruned_configs
        print(f"pruning: {result.n_simulated_configs}/{total} configs "
              f"simulated, {result.n_pruned_configs} ICV-equivalent "
              f"configs fanned out")
    print(
        f"{result.n_samples} samples ({result.n_measurements} measurements) "
        f"for {len(result.apps())} applications on {args.arch} "
        f"-> {args.output}"
    )
    return 0


def _prepare(table: Table) -> Table:
    from repro.core.dataset import validate_dataset

    table = validate_dataset(table)
    if "speedup" not in table:
        table = enrich_with_speedup(table)
    if "optimal" not in table:
        table = label_optimal(table)
    return table


def _cmd_analyze(args: argparse.Namespace) -> int:
    table = _prepare(read_csv(args.dataset))
    print("# Best speedup per application")
    print(speedup_summary(table, by=("arch", "app")).to_text())
    print()

    analyses = [
        ("per-application (Fig. 2)", influence_by_application(table)),
        ("per-architecture (Fig. 3)", influence_by_architecture(table)),
        ("per-arch-application (Fig. 4)", influence_by_arch_application(table)),
    ]
    for title, inf in analyses:
        print(f"# Influence, {title}  [mean accuracy "
              f"{inf.mean_accuracy():.2f}]")
        print(
            text_heatmap(
                inf.matrix(), inf.row_labels, list(inf.feature_names)
            )
        )
        print()
        if args.figures_dir:
            out = Path(args.figures_dir)
            out.mkdir(parents=True, exist_ok=True)
            name = inf.grouping.replace("-", "_") + ".svg"
            influence_heatmap(inf).save(str(out / name))
            print(f"wrote {out / name}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    table = _prepare(read_csv(args.dataset))
    recs = best_variable_values(table, quantile=args.quantile)
    if args.app:
        recs = [r for r in recs if r.app == args.app]
    print("# Best-performing variables and values (Table VII analogue)")
    for r in recs:
        print(
            f"  {r.app:10s} {r.arch:8s} {r.variable:16s} "
            f"{'/'.join(r.values):24s} lift={r.lift:5.2f} "
            f"best={r.best_speedup:5.2f}x"
        )
    print("\n# Worst trends (Sec. V-4)")
    for t in worst_trends(table):
        print(
            f"  {t.variable}={t.value}: lift={t.lift:.2f}, "
            f"mean speedup {t.mean_speedup:.3f}x"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    machine = get_machine(args.arch)
    workload = get_workload(args.workload)
    input_name = args.input or workload.default_input
    program = workload.program(input_name)
    space = EnvSpace()

    result = hill_climb(
        program,
        machine,
        space,
        num_threads=args.threads,
        restarts=args.restarts,
        seed=args.seed,
    )
    print(f"workload  : {workload.name}.{input_name} on {args.arch}")
    print(f"default   : {result.start_runtime:.6f} s")
    print(f"tuned     : {result.best_runtime:.6f} s "
          f"({result.speedup:.3f}x, {result.evaluations} evaluations)")
    env = result.best_config.as_env()
    print("config    :", " ".join(f"{k}={v}" for k, v in env.items()) or
          "(defaults)")
    return 0


def _cmd_release(args: argparse.Namespace) -> int:
    from repro.core.release import write_release

    table = _prepare(read_csv(args.dataset))
    manifest = write_release(table, args.output, version=args.version)
    print(
        f"released {manifest.n_samples} samples "
        f"({len(manifest.files)} files, "
        f"{len(manifest.architectures)} architectures, "
        f"{len(manifest.applications)} applications) -> {args.output}"
    )
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.runtime.icv import EnvConfig
    from repro.runtime.power import energy_profile

    machine = get_machine(args.arch)
    workload = get_workload(args.workload)
    program = workload.program(args.input or workload.default_input)
    configs = [
        ("default", EnvConfig()),
        ("turnaround", EnvConfig(library="turnaround")),
        ("blocktime=0", EnvConfig(blocktime="0")),
        ("half threads", EnvConfig(num_threads=machine.n_cores // 2)),
    ]
    rows = []
    for label, cfg in configs:
        p = energy_profile(program, machine, cfg)
        rows.append(
            {
                "config": label,
                "runtime_s": p.runtime_s,
                "energy_j": p.energy_j,
                "avg_power_w": p.avg_power_w,
                "edp_js": p.edp,
            }
        )
    print(Table.from_records(rows).to_text(float_fmt="{:.4g}"))
    return 0


def _cmd_microbench(args: argparse.Namespace) -> int:
    from repro.runtime.icv import EnvConfig
    from repro.runtime.microbench import overhead_table

    kwargs = {}
    if args.library:
        kwargs["library"] = args.library
    if args.threads:
        kwargs["num_threads"] = args.threads
    print(overhead_table(EnvConfig(**kwargs)).to_text(float_fmt="{:.2f}"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import generate_report

    table = _prepare(read_csv(args.dataset))
    path = generate_report(table, args.output, title=args.title)
    print(f"wrote {path}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.frame.ops import concat_tables
    from repro.viz.violin import violin_plot

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    apps = tuple(args.apps)
    tables = []
    for arch in machine_names():
        names = tuple(
            a for a in apps
            if get_workload(a).runs_on(arch)
        )
        if not names:
            continue  # e.g. Sort/Strassen never ran on the x86 machines
        print(f"sweeping {names} on {arch} (scale={args.scale}) ...",
              flush=True)
        result = run_sweep(
            SweepPlan(arch=arch, workload_names=names, scale=args.scale,
                      repetitions=args.repetitions)
        )
        tables.append(records_to_table(result.block))
    dataset = label_optimal(enrich_with_speedup(concat_tables(tables)))

    # Violin figures: one per app, violins per (arch, setting).
    for app in apps:
        mask = np.asarray([a == app for a in dataset["app"]])
        sub = dataset.filter(mask)
        samples, labels = [], []
        for (arch, inp, thr), group in sub.group_by(
            ["arch", "input_size", "num_threads"]
        ):
            samples.append(np.asarray(group["runtime_mean"], float))
            varies_threads = (
                get_workload(app).varies == "threads"
            )
            labels.append(
                f"{arch}/T={thr}" if varies_threads else f"{arch}/{inp}"
            )
        path = out / f"violin_{app}.svg"
        violin_plot(
            samples, labels, log_scale=True,
            title=f"{app}: runtime distribution over the sweep",
            width=max(900.0, 60.0 * len(samples)),
            markers=[float(s.min()) for s in samples],
        ).save(str(path))
        print(f"wrote {path}")

    # Influence heat maps (Figs. 2-4).
    for name, inf in (
        ("fig2_by_application", influence_by_application(dataset)),
        ("fig3_by_architecture", influence_by_architecture(dataset)),
        ("fig4_by_arch_application", influence_by_arch_application(dataset)),
    ):
        path = out / f"{name}.svg"
        influence_heatmap(inf).save(str(path))
        print(f"wrote {path}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads.base import WORKLOADS

    machine = get_machine(args.arch)
    rows = [
        w.describe(machine)
        for w in sorted(WORKLOADS.values(), key=lambda w: (w.suite, w.name))
    ]
    print(Table.from_records(rows).to_text())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import bless_golden_traces, run_all
    from repro.check.runner import write_report
    from repro.reporting import render_report

    if args.bless:
        for path in bless_golden_traces(args.golden_dir):
            print(f"blessed {path}")
        print("review the fixture diff before committing")
        return 0
    suites = None if args.suite == "all" else (args.suite,)
    results = run_all(suites, golden_dir=args.golden_dir, quick=args.quick)
    print(render_report(args.fmt, checks=results))
    if args.report:
        write_report(results, args.report)
        if args.fmt == "text":
            print(f"report -> {args.report}")
    return 0 if all(r.passed for r in results) else 1


def _parse_env_items(items: list[str]) -> dict[str, str] | None:
    """Parse repeated ``--env VAR=VALUE`` flags; None on a malformed item."""
    env: dict[str, str] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"error: --env expects VAR=VALUE, got {item!r}",
                  file=sys.stderr)
            return None
        env[key] = value
    return env


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        dedupe_findings,
        grid_prune_stats,
        lint_environment,
        lint_manifests,
        lint_source,
        unwaived,
    )
    from repro.reporting import render_report, write_report_file

    # Default invocation (no plane selected): self-lint + flow lint +
    # deps lint + all manifests — what CI runs.
    run_all = not (
        args.self_lint or args.flow or args.deps or args.arch
        or args.env or args.stats
    )
    archs = args.arch if args.arch else (machine_names() if run_all else [])

    planes = [
        plane
        for plane, selected in (("self", args.self_lint),
                                ("flow", args.flow), ("deps", args.deps))
        if selected or run_all
    ]
    kwargs = {"src_root": args.src} if args.src else {}
    findings = lint_source(planes, **kwargs) if planes else []
    for arch in archs:
        planes.append(f"manifests:{arch}")
        findings.extend(
            lint_manifests(arch, workload_names=args.workloads)
        )
    if args.env:
        env = _parse_env_items(args.env)
        if env is None:
            return 2
        for arch in (args.arch or ["milan"]):
            planes.append(f"env:{arch}")
            findings.extend(lint_environment(env, arch))

    # Program-spec findings are machine-independent, so linting several
    # archs repeats them; keep the first occurrence only.
    findings = dedupe_findings(findings)

    stats = []
    if args.stats:
        for arch in (args.arch or machine_names()):
            stats.extend(grid_prune_stats(get_machine(arch),
                                          scale=args.scale))
    prune_stats = [
        {
            "arch": s.arch,
            "scale": s.scale,
            "nthreads": s.nthreads,
            "n_configs": s.n_configs,
            "n_classes": s.n_classes,
            "reduction": s.reduction,
        }
        for s in stats
    ]

    print(render_report(args.fmt, findings=findings, planes=planes,
                        prune_stats=prune_stats))
    if args.fmt == "text":
        for s in stats:
            print(s.describe())

    if args.report:
        write_report_file(args.report, findings=findings, planes=planes,
                          prune_stats=prune_stats)
        if args.fmt == "text":
            print(f"report -> {args.report}")
    return 1 if unwaived(findings) else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.reporting import render_report, write_report_file
    from repro.sanitize import run_sanitize

    env = _parse_env_items(args.env)
    if env is None:
        return 2
    report = run_sanitize(
        archs=args.arch,
        workload_names=args.workloads,
        env=env or None,
    )
    print(render_report(args.fmt, findings=report.findings,
                        **report.extra_payload()))
    if args.fmt == "text":
        # format_findings' verdict counts warnings; the sanitize gate is
        # error-only, so state it explicitly.
        n_err = len(report.failures())
        print("sanitize gate: "
              + ("PASS (no error-severity findings)" if report.passed
                 else f"FAIL ({n_err} error-severity finding(s))"))
    if args.report:
        write_report_file(args.report, findings=report.findings,
                          **report.extra_payload())
        if args.fmt == "text":
            print(f"report -> {args.report}")
    return 0 if report.passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import threading

    from repro.serve.app import DaemonConfig, TuningDaemon

    config = DaemonConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        max_inflight=args.max_inflight,
        max_queued=args.max_queued,
        deadline_s=args.deadline_s,
        drain_grace_s=args.drain_grace_s,
        header_timeout_s=args.header_timeout_s,
        rate_per_s=args.rate,
        burst=args.burst,
        cache_dir=args.cache_dir,
        state_dir=args.state_dir,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        port_file=args.port_file,
        fsync=args.fsync,
    )
    daemon = TuningDaemon(config)
    started = threading.Event()

    def banner() -> None:
        started.wait()
        print(f"repro-omp serve: listening on "
              f"{config.host}:{daemon.port}", flush=True)
        if daemon.resumed_job_ids:
            print(f"repro-omp serve: resumed "
                  f"{len(daemon.resumed_job_ids)} journaled job(s): "
                  f"{', '.join(daemon.resumed_job_ids)}", flush=True)

    threading.Thread(target=banner, daemon=True).start()
    summary = asyncio.run(daemon.serve(started=started))
    interrupted = summary.get("interrupted", [])
    print(f"repro-omp serve: drained; {len(interrupted)} job(s) "
          f"journaled for resume", flush=True)
    return 0


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.reporting import render_report, write_report_file
    from repro.serve.scenario import run_service_scenario

    with contextlib.ExitStack() as stack:
        work_dir = args.cache_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-serve-chaos-")
        )
        verdict = run_service_scenario(
            arch=args.arch,
            workloads=tuple(args.workloads) if args.workloads else (),
            scale=args.scale,
            repetitions=args.repetitions,
            inputs_limit=args.inputs_limit,
            seed=args.seed,
            n_requests=args.serve_requests,
            slow_clients=args.slow_clients,
            backend_deaths=args.backend_deaths,
            drain_kills=args.drain_kills,
            work_dir=work_dir,
            artifact_dir=args.artifact_dir,
        )
    if args.fmt == "json":
        print(render_report("json", service_chaos=verdict))
    else:
        faults = verdict["service_chaos_plan"]["faults"]
        print(f"injecting {len(faults)} service fault(s) across "
              f"{verdict['n_requests']} request(s) "
              f"(seed {verdict['seed']}):")
        for fault in faults:
            print(f"  {fault['kind']}@request {fault['request_index']}")
        for outcome in verdict["outcomes"]:
            mark = "ok " if outcome["ok"] else "FAIL"
            print(f"  [{mark}] {outcome['kind']}: {outcome['detail']}")
        print("service chaos verdict: "
              + ("PASS" if verdict["ok"] else "FAIL"))
    if args.report:
        write_report_file(args.report, service_chaos=verdict)
        if args.fmt == "text":
            print(f"report -> {args.report}")
    return 0 if verdict["ok"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    if args.serve:
        return _cmd_chaos_serve(args)

    from repro.core.cache import SweepCache
    from repro.core.sweep import plan_batches
    from repro.reporting import render_report, write_report_file
    from repro.resilience import ChaosPlan, RetryPolicy

    plan = SweepPlan(
        arch=args.arch,
        workload_names=tuple(args.workloads) if args.workloads else None,
        scale=args.scale,
        repetitions=args.repetitions,
        inputs_limit=args.inputs_limit,
    )
    n_batches = len(plan_batches(plan))
    chaos = ChaosPlan.generate(
        n_batches,
        seed=args.seed,
        crashes=args.crashes,
        hangs=args.hangs,
        corrupt_results=args.corrupt_results,
        cache_faults=args.cache_faults,
        poison=args.poison,
        node_lost=args.node_lost,
        shard_partitions=args.shard_partitions,
    )
    retry = RetryPolicy(max_retries=args.max_retries, base_delay_s=0.01,
                        seed=args.seed)

    with contextlib.ExitStack() as stack:
        cache_dir = args.cache_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-chaos-")
        )
        if args.fmt == "text":
            print(f"injecting {len(chaos.faults)} fault(s) into "
                  f"{n_batches} batches (seed {args.seed}):")
            for fault in chaos.describe():
                print(f"  {fault['kind']}@{fault['batch_index']} "
                      f"attempts={fault['attempts']}")
        degraded = run_sweep(
            plan, n_processes=args.processes, cache=SweepCache(cache_dir),
            fail_policy="degrade", chaos=chaos, retry=retry,
            batch_timeout_s=args.batch_timeout_s,
            backend=args.backend,
        )
        report = degraded.failure_report
        # The resume pass re-attempts quarantined batches and trips the
        # cache checksum on every injected on-disk corruption; the clean
        # sweep is the ground truth the recovery must reproduce.
        resume_cache = SweepCache(cache_dir)
        resumed = run_sweep(plan, cache=resume_cache, fail_policy="degrade")
        clean = run_sweep(plan)

    parity = resumed.block.to_bytes() == clean.block.to_bytes()
    faults_detected = len(resume_cache.corrupt_keys) == args.cache_faults
    verdict = {
        "n_batches": n_batches,
        "backend": degraded.backend,
        "n_shards": degraded.n_shards,
        "chaos_plan": chaos.to_dict(),
        "resume_parity": parity,
        "cache_faults_detected": len(resume_cache.corrupt_keys),
        "cache_faults_injected": args.cache_faults,
    }
    if degraded.shard_report is not None:
        verdict["shard_report"] = degraded.shard_report.to_dict()
    print(render_report(args.fmt, failure_report=report, chaos=verdict))
    if args.fmt == "text":
        if degraded.shard_report is not None:
            sr = degraded.shard_report
            print(f"shards: {sr.n_shards} lane(s), {sr.n_steals} "
                  f"steal(s), {sr.n_reassignments} reassignment(s), "
                  f"{sr.node_respawns} node respawn(s)")
        print(f"resume: {resumed.n_cached_batches} batches from cache, "
              f"{resumed.n_computed_batches} re-simulated, "
              f"{len(resume_cache.corrupt_keys)}/{args.cache_faults} "
              f"injected cache fault(s) caught by checksum")
        print("resume parity vs fault-free sweep: "
              + ("IDENTICAL" if parity else "DIVERGED"))
    if args.report:
        write_report_file(args.report, failure_report=report, chaos=verdict)
        if args.fmt == "text":
            print(f"report -> {args.report}")
    return 0 if parity and faults_detected else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.runtime.icv import EnvConfig
    from repro.runtime.trace import trace_execution

    machine = get_machine(args.arch)
    workload = get_workload(args.workload)
    program = workload.program(args.input or workload.default_input)
    kwargs = {"library": args.library} if args.library else {}
    trace = trace_execution(program, machine, EnvConfig(**kwargs))
    print(f"{trace.program} on {trace.arch}: {trace.total_s:.6f} s, "
          f"{trace.parallel_fraction:.1%} parallel")
    print(trace.to_table().to_text(float_fmt="{:.4g}"))
    if args.output:
        trace.save_chrome_trace(args.output)
        print(f"chrome trace -> {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "machines":
            return _cmd_machines()
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "recommend":
            return _cmd_recommend(args)
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "release":
            return _cmd_release(args)
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "microbench":
            return _cmd_microbench(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "sanitize":
            return _cmd_sanitize(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "workloads":
            return _cmd_workloads(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "report":
            return _cmd_report(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
