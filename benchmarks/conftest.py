"""Shared infrastructure for the paper-artifact benchmarks.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index) and prints the rows/series the paper
reports; artifacts (CSV datasets, SVG figures, text tables) are written to
``benchmarks/output/``.

Scale is controlled by ``REPRO_BENCH_SCALE``:

- ``small``   — tens of configs per setting; seconds per bench (CI),
- ``medium``  — a few hundred configs; the default,
- ``full``    — the complete 4,608/9,216-config grids, the paper's
  exhaustive exploration; minutes per architecture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.dataset import (
    aggregate_runs,
    enrich_with_speedup,
    records_to_table,
)
from repro.core.labeling import label_optimal
from repro.core.sweep import SweepPlan, run_sweep

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "medium")
OUTPUT_DIR = Path(__file__).parent / "output"

_SWEEP_CACHE: dict[tuple, object] = {}
_DATASET_CACHE: dict[tuple, object] = {}


def bench_sweep(arch: str, workloads=None, repetitions: int = 3,
                scale: str | None = None):
    """Run (or reuse) a sweep for benchmarks — cached per identity."""
    key = (arch, workloads, repetitions, scale or BENCH_SCALE)
    if key not in _SWEEP_CACHE:
        plan = SweepPlan(
            arch=arch,
            workload_names=workloads,
            scale=scale or BENCH_SCALE,
            repetitions=repetitions,
        )
        _SWEEP_CACHE[key] = run_sweep(plan)
    return _SWEEP_CACHE[key]


def bench_dataset(arch: str, workloads=None, repetitions: int = 3,
                  scale: str | None = None):
    """Enriched + labeled dataset table for a cached sweep."""
    key = (arch, workloads, repetitions, scale or BENCH_SCALE)
    if key not in _DATASET_CACHE:
        result = bench_sweep(arch, workloads, repetitions, scale)
        table = aggregate_runs(records_to_table(result.block))
        _DATASET_CACHE[key] = label_optimal(enrich_with_speedup(table))
    return _DATASET_CACHE[key]


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def all_arch_datasets():
    """Datasets for all three machines at the bench scale."""
    return {arch: bench_dataset(arch) for arch in ("a64fx", "skylake", "milan")}


def emit(title: str, body: str, output_dir: Path, filename: str) -> None:
    """Print a regenerated artifact and persist it."""
    banner = f"\n=== {title} ==="
    print(banner)
    print(body)
    (output_dir / filename).write_text(f"{title}\n\n{body}\n", encoding="utf-8")
