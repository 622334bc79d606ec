"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 10 --trace 0

Set-up is timed in fresh interpreters: with ``--trace 0`` the workload
is set up ``SETUPS`` times (``SETUPS - 1`` set-up-only processes, then
the measured one) and ``setup_s`` is the median, each scaled to the
reference CPU speed by the probes the worker times around it (see
speed.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The exit
code is non-zero when an operation failed or an output check did not
hold.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-cold", "sweep-parallel", "replay-analyze",
             "serve-recommend")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Whole-run budget; a worker still running after it is killed.
BUDGET_S = 170.0


def spawn(args, setup_only: bool, deadline: float):
    """Run one worker; returns ``(setup_s, report_lines, result)``, with
    ``result`` None unless the worker printed one and exited cleanly."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                             proc.kill)
    killer.start()
    setup_s = None
    lines: list[str] = []
    result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("READY ") and setup_s is None:
                elapsed = time.perf_counter() - start
                probes = [float(p) for p in line.split()[1:]]
                # The worker's own probes are not set-up work.
                setup_s = ((elapsed - sum(probes)) * REFERENCE_S
                           / statistics.mean(probes))
                print(f"  set-up took {elapsed:.3f} s with probes of "
                      f"{sum(probes) * 1e3:.1f} ms; {setup_s:.3f} s at "
                      "the reference speed", flush=True)
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                lines.append(line)
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
    if proc.returncode != 0:
        result = None
    return setup_s, lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + BUDGET_S

    setups = []
    try:
        for _ in range(0 if args.trace else SETUPS - 1):
            setup_s, lines, _ = spawn(args, True, deadline)
            if setup_s is None:
                print("\n".join(lines), file=sys.stderr)
                print("error: set-up failed", file=sys.stderr)
                return 1
            setups.append(setup_s)
        setup_s, lines, result = spawn(args, False, deadline)
    finally:
        work = ROOT / ".perfbench"
        if work.is_dir() and not any(work.iterdir()):
            shutil.rmtree(work)
    print("\n".join(lines))
    if setup_s is None or result is None:
        print("error: the measured run did not complete", file=sys.stderr)
        return 1
    setups.append(setup_s)
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        print(f"  set-up: {', '.join(f'{s:.3f}' for s in setups)} s "
              f"(median of {len(setups)})")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in missing:
        print(f"  missing metric: {name}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} "
                  f"{m['unit']}")
    correct = result["failed"] == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
