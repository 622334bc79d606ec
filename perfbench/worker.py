"""One benchmark process: set a workload up, measure it, check it.

Started by ``run.py``.  Prints ``READY <probe_s> <probe_s>`` the moment
set-up is done, with the CPU-speed probes it timed first thing and just
then (the parent times set-up from process start to that line and
scales it by them, see speed.py), then, unless ``--setup-only``,
human-readable report lines and one final
``RESULT <json>`` line.  Everything it writes lives in a private
directory under ``.perfbench/`` in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from speed import probe

ROOT = Path(__file__).resolve().parent.parent
#: Per-pass counts of every traced workload at ``EXPECTED_SEED``.
EXPECTED = Path(__file__).with_name("expected_counts.json")
EXPECTED_SEED = 0


def end_to_end(wl, phase) -> dict[str, float]:
    """The end-to-end metrics of one phase (all but ``setup_s``), over
    every operation of the run.  Each time is first divided by the
    host's slowdown as the CPU-speed probes around its stretch measured
    it (see speed.py), which corrects, to first order, for the slow
    phases that outlast a run."""
    from timing import summarize

    def line(label: str, ph) -> None:
        print(f"  {label}: {ph.records / ph.timed_s:.1f} records/s, op "
              f"{summarize(ph.op_s).describe('ms', 1e3)}")

    line("as measured", phase)
    print(f"  speed probe: median {phase.slowdown:.3f} x the reference "
          f"over {len(phase.stretches)} stretches")
    phase = phase.scaled()
    line("scaled to the reference speed", phase)
    ops = summarize(phase.op_s)
    out = {
        "peak_rss_mb": wl.peak_rss_mb(),
        "records_per_s": phase.records / phase.timed_s,
        "ops_per_s": phase.n_ops / phase.timed_s,
        "op_ms_p50": ops.median * 1e3,
    }
    if ops.p90_resolved:
        out["op_ms_p90"] = ops.p90 * 1e3
    return out


def traced(wl, seconds: float):
    """Half the time untraced, half traced; the traced half gives the
    per-layer metrics and the difference gives the tracing overhead."""
    import layers
    from timing import summarize
    from tracing import Tracer
    from workloads import ServeRecommend, unattributed_ms_p50

    plain = wl.measure(seconds / 2, floor=0)
    tracer = Tracer(keep_intervals=isinstance(wl, ServeRecommend))
    with layers.install(tracer):
        traced_phase = wl.measure(seconds / 2, floor=0)
    plain, traced_phase = plain.scaled(), traced_phase.scaled()
    reported = {}
    if isinstance(wl, ServeRecommend):
        reported["serve.unattributed_ms_p50"] = unattributed_ms_p50(
            wl.samples, tracer.intervals)
    rate = [p.records / p.timed_s for p in (plain, traced_phase)]
    p50 = [summarize(p.op_s).median for p in (plain, traced_phase)]
    reported["trace.overhead_records_per_s"] = (rate[0] - rate[1]) / rate[0]
    reported["trace.overhead_op_ms_p50"] = (p50[1] - p50[0]) / p50[0]
    metrics = layers.metrics(tracer, traced_phase.passes,
                             traced_phase.counters, reported)
    print(f"  traced {traced_phase.passes} pass(es) after "
          f"{plain.passes} untraced; per-layer values are per pass")
    print(f"  tracing overhead: records/s {rate[0]:.1f} -> {rate[1]:.1f}, "
          f"op p50 {p50[0] * 1e3:.3f} -> {p50[1] * 1e3:.3f} ms")
    if wl.name == "sweep-parallel":
        print("  not measured here (runs inside pool workers): "
              + ", ".join(layers.WORKER_SIDE) + "; see sweep-cold")
    if wl.seed == EXPECTED_SEED and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text())[wl.name]
        differ = [f"{n} {metrics[n]:g} (expected {expected.get(n, 0):g})"
                  for n in layers.count_names()
                  if metrics[n] != expected.get(n)]
        print(f"  counts at seed {EXPECTED_SEED}: "
              + ("differ: " + "; ".join(differ) if differ
                 else f"all {len(expected)} match {EXPECTED.name}"))
    return [plain, traced_phase], metrics


def run(args, work: Path, first_probe: float) -> int:
    from workloads import WORKLOADS, ServeRecommend

    cls = WORKLOADS[args.workload]
    kwargs = ({"in_process": True}
              if args.trace and cls is ServeRecommend else {})
    wl = cls(args.seed, work, **kwargs)
    try:
        wl.setup()
        print(f"READY {first_probe!r} {probe()!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            phases, metrics = traced(wl, args.seconds)
        else:
            phases = [wl.measure(args.seconds)]
    finally:
        wl.close()
    if not args.trace:
        metrics = end_to_end(wl, phases[0])
    wl.finish(phases)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        for error in phase.errors:
            print(f"  failure: {error}")
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / max(attempted, 1):.4f}), "
          f"{sum(p.passes for p in phases)} pass(es)")
    print("RESULT " + json.dumps({"attempted": attempted, "failed": failed,
                                  "metrics": metrics}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    first_probe = probe()
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Pool spool directories and any other temporary files stay inside
    # the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    try:
        return run(args, work, first_probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
