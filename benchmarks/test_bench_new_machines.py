"""Extension benchmark: the methodology on post-paper machines.

Runs the full sweep+influence pipeline on the two extension machines
(AMD Genoa, NVIDIA Grace — the paper's "latest CPU chips" future work)
and checks the structural predictions: Genoa inherits Milan's
congestion-driven tuning profile; Grace's flat memory removes the
affinity/thread-count headroom while the wait-policy knob keeps its
value.
"""

import numpy as np
import pytest

from conftest import emit

from repro.arch.extensions import GENOA, GRACE, register_machine, unregister_machine
from repro.core.dataset import enrich_with_speedup, records_to_table
from repro.core.influence import influence_by_architecture
from repro.core.labeling import label_optimal
from repro.core.sweep import SweepPlan, run_sweep
from repro.frame.table import Table

APPS = ("nqueens", "su3bench", "xsbench", "cg")


@pytest.fixture(scope="module")
def new_machine_datasets():
    register_machine(GENOA)
    register_machine(GRACE)
    out = {}
    try:
        for arch in ("genoa", "grace"):
            result = run_sweep(
                SweepPlan(arch=arch, workload_names=APPS, scale="small",
                          repetitions=2)
            )
            out[arch] = label_optimal(
                enrich_with_speedup(records_to_table(result.block))
            )
    finally:
        # Keep them registered for the duration of the module's tests.
        pass
    yield out
    unregister_machine("genoa")
    unregister_machine("grace")


def test_ext_new_machines(benchmark, new_machine_datasets, output_dir):
    """Per-app tuning headroom + influence on the post-paper machines."""

    def analyze():
        rows = []
        influences = {}
        for arch, dataset in new_machine_datasets.items():
            for (app,), sub in dataset.group_by("app"):
                best = {}
                for (inp, thr), g in sub.group_by(
                    ["input_size", "num_threads"]
                ):
                    key = (inp, thr)
                    best[key] = float(
                        np.max(np.asarray(g["speedup"], float))
                    )
                rows.append(
                    {
                        "arch": arch,
                        "app": app,
                        "best_speedup": max(best.values()),
                    }
                )
            influences[arch] = influence_by_architecture(dataset)
        return rows, influences

    rows, influences = benchmark.pedantic(analyze, rounds=1, iterations=1)
    body = Table.from_records(rows).to_text(float_fmt="{:.3f}")
    for arch, inf in influences.items():
        scores = inf.rows[0].as_dict()
        top = ", ".join(inf.rows[0].top_features(3))
        body += f"\n{arch} top influences: {top}"
    emit(
        "Extension: methodology on post-paper machines (Genoa, Grace)",
        body,
        output_dir,
        "ext_new_machines.txt",
    )

    by = {(r["arch"], r["app"]): r["best_speedup"] for r in rows}
    # Genoa: Milan-like congestion headroom on the bandwidth apps.
    assert by[("genoa", "su3bench")] > 1.3
    assert by[("genoa", "xsbench")] > 1.25
    # Grace: flat memory kills those, wait policy survives.
    assert by[("grace", "su3bench")] < 1.15
    assert by[("grace", "xsbench")] < 1.15
    assert by[("grace", "nqueens")] > 1.5
