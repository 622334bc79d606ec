"""Shared fixtures: small sweeps reused across analysis tests."""

from __future__ import annotations

import pytest

from repro.core.dataset import enrich_with_speedup, records_to_table
from repro.core.labeling import label_optimal
from repro.core.sweep import SweepPlan, run_sweep


@pytest.fixture(scope="session")
def milan_small_sweep():
    """A small-scale Milan sweep over three contrasting workloads."""
    plan = SweepPlan(
        arch="milan",
        workload_names=("xsbench", "cg", "nqueens"),
        scale="small",
        repetitions=3,
    )
    return run_sweep(plan)


@pytest.fixture(scope="session")
def milan_dataset(milan_small_sweep):
    """Enriched + labeled dataset table for the Milan small sweep."""
    table = records_to_table(milan_small_sweep.block)
    return label_optimal(enrich_with_speedup(table))


@pytest.fixture(scope="session")
def tri_arch_dataset():
    """Small sweep over all three machines, two workloads each."""
    from repro.frame.ops import concat_tables

    tables = []
    for arch in ("a64fx", "skylake", "milan"):
        plan = SweepPlan(
            arch=arch,
            workload_names=("alignment", "xsbench"),
            scale="small",
            repetitions=3,
        )
        result = run_sweep(plan)
        tables.append(records_to_table(result.block))
    return label_optimal(enrich_with_speedup(concat_tables(tables)))
