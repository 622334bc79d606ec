"""Raw sweep records -> tabular datasets (paper Sec. IV-B).

Dataset schema (one row per unique sample, matching the paper's released
tabular files):

``arch, app, suite, input_size, num_threads, places, proc_bind, schedule,
library, blocktime, force_reduction, align_alloc, runtime_0..runtime_{R-1},
runtime_mean, default_runtime, speedup``

- ``runtime_mean`` averages the repeated runs ("to mitigate variations in
  runtime of configurations, we average all runtime measurements per
  configuration"),
- ``default_runtime`` is the mean runtime of the all-default configuration
  at the *same setting* — same (arch, app, input_size, num_threads) — so
  speedups measure what the seven swept variables buy at that setting
  (the paper's Table V reports per-setting ranges like XSBench/Milan
  1.016-2.602, which is only consistent with per-setting normalization),
- ``speedup = default_runtime / runtime_mean``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.sweep import (
    SweepRecord,
    check_sweep_block,
    sweep_records_to_block,
)
from repro.errors import DatasetError, FrameError, SchemaError
from repro.frame.columns import RecordBlock
from repro.frame.table import Table
from repro.runtime.icv import UNSET
from repro.stats.descriptive import summarize

__all__ = [
    "CONFIG_COLUMNS",
    "KEY_COLUMNS",
    "records_to_table",
    "aggregate_runs",
    "enrich_with_speedup",
    "speedup_summary",
    "runtime_stats_by_run",
    "validate_dataset",
]

#: Environment-variable columns in dataset order.
CONFIG_COLUMNS = (
    "num_threads",
    "places",
    "proc_bind",
    "schedule",
    "library",
    "blocktime",
    "force_reduction",
    "align_alloc",
)

#: Identity of a setting.
KEY_COLUMNS = ("arch", "app", "suite", "input_size")


def _require(table: Table, columns: Sequence[str], op: str) -> None:
    missing = [c for c in columns if c not in table]
    if missing:
        raise SchemaError(f"{op}: missing columns {missing}")


def records_to_table(records: Sequence[SweepRecord] | RecordBlock) -> Table:
    """Flatten sweep records into the dataset table.

    Accepts either a packed :class:`~repro.frame.columns.RecordBlock`
    straight off the sweep pipeline (``result.block``) or a sequence of
    :class:`SweepRecord`, which is packed into one first.  The table is
    built column-at-a-time from the block, without per-row dicts.
    Raises :class:`DatasetError` for input it cannot tabulate: no
    records, mixed repetition counts or a record without runtimes.
    """
    block = records
    if not isinstance(block, RecordBlock):
        try:
            block = sweep_records_to_block(records)
        except FrameError as exc:
            raise DatasetError(f"cannot tabulate sweep records: {exc}") \
                from exc
    if len(block) == 0:
        raise DatasetError("no sweep records to tabulate")
    check_sweep_block(block)
    width = block.columns["runtimes"].width
    table = Table.from_block(
        block,
        vector_names={"runtimes": [f"runtime_{i}" for i in range(width)]},
    ).without_columns(["cfg_num_threads"])
    # align None (unset) travels as -1 in the block; the dataset encodes
    # it as 0 so the column stays numeric.
    align = table.column("align_alloc").copy()
    align[align < 0] = 0
    return table.with_column("align_alloc", align)


def run_columns(table: Table) -> list[str]:
    """The ``runtime_i`` columns present, in index order."""
    cols = [c for c in table.column_names if c.startswith("runtime_")
            and c.removeprefix("runtime_").isdigit()]
    return sorted(cols, key=lambda c: int(c.removeprefix("runtime_")))


def aggregate_runs(table: Table) -> Table:
    """Add ``runtime_mean`` averaging the per-run columns."""
    cols = run_columns(table)
    if not cols:
        raise SchemaError("aggregate_runs: no runtime_i columns")
    stacked = np.stack([np.asarray(table.column(c), dtype=float) for c in cols])
    return table.with_column("runtime_mean", stacked.mean(axis=0))


def _is_default_row(table: Table) -> np.ndarray:
    """Boolean mask of all-env-default configuration rows (any threads)."""
    n = table.num_rows
    mask = np.ones(n, dtype=bool)
    for col in ("places", "proc_bind", "schedule", "library", "blocktime",
                "force_reduction"):
        mask &= np.asarray(table.column(col) == UNSET, dtype=bool)
    mask &= np.asarray(table.column("align_alloc"), dtype=np.int64) == 0
    return mask


def enrich_with_speedup(table: Table) -> Table:
    """Add ``default_runtime`` and ``speedup`` columns.

    Normalization is per setting: each row's ``default_runtime`` is the
    mean runtime of the all-unset configuration at the same
    (arch, app, input_size, num_threads).  Raises :class:`DatasetError`
    if any setting lacks its default row.
    """
    if "runtime_mean" not in table:
        table = aggregate_runs(table)
    _require(
        table,
        KEY_COLUMNS + ("num_threads", "runtime_mean"),
        "enrich_with_speedup",
    )
    default_mask = _is_default_row(table)
    means = np.asarray(table.column("runtime_mean"), dtype=float)

    # Factorize-and-gather: one group id per setting, a per-group default
    # runtime gathered back onto every row (no per-row Python loop).
    codes = table.group_codes(["arch", "app", "input_size", "num_threads"])
    n_groups = int(codes.max(initial=-1)) + 1
    default_mean = np.empty(n_groups)
    has_default = np.zeros(n_groups, dtype=bool)
    default_idx = np.nonzero(default_mask)[0]
    # Later default rows overwrite earlier ones, like the dict they replace.
    default_mean[codes[default_idx]] = means[default_idx]
    has_default[codes[default_idx]] = True

    missing = ~has_default[codes]
    if missing.any():
        row = table.row(int(np.nonzero(missing)[0][0]))
        key = (row["arch"], row["app"], row["input_size"],
               int(row["num_threads"]))
        raise DatasetError(
            f"no default-configuration row for setting {key}; every "
            "setting's batch must include the all-unset config"
        )
    default_col = default_mean[codes]

    table = table.with_column("default_runtime", default_col)
    return table.with_column("speedup", default_col / means)


def validate_dataset(table: Table) -> Table:
    """Integrity checks on a dataset table (the paper's "cleansing" step).

    Verifies the identity/config columns exist, every runtime column is
    finite and positive, and — when present — speedups are finite and
    positive.  Returns the table unchanged on success; raises
    :class:`DatasetError` naming the first offending column and row.
    Use on externally-loaded CSVs before analysis.
    """
    _require(table, KEY_COLUMNS + CONFIG_COLUMNS, "validate_dataset")
    cols = run_columns(table)
    if not cols:
        raise DatasetError("validate_dataset: no runtime_i columns")
    check = list(cols)
    for optional in ("runtime_mean", "default_runtime", "speedup"):
        if optional in table:
            check.append(optional)
    for name in check:
        values = np.asarray(table.column(name), dtype=float)
        bad = ~np.isfinite(values) | (values <= 0.0)
        if bad.any():
            row = int(np.nonzero(bad)[0][0])
            raise DatasetError(
                f"validate_dataset: column {name!r} row {row} has invalid "
                f"value {values[row]!r} (runtimes/speedups must be finite "
                "and positive)"
            )
    return table


def speedup_summary(table: Table, by: Sequence[str] = ("app",)) -> Table:
    """Best-achievable speedup per group (the Table V/VI quantity).

    For each group, reports the maximum speedup over all configurations —
    the group's tuning headroom over the default.
    """
    _require(table, tuple(by) + ("speedup",), "speedup_summary")
    return table.aggregate(list(by), {"speedup": "max"}).rename(
        {"speedup_max": "max_speedup"}
    )


def runtime_stats_by_run(table: Table) -> Table:
    """Per run-index mean/std of runtimes (the paper's Table IV)."""
    cols = run_columns(table)
    if not cols:
        raise SchemaError("runtime_stats_by_run: no runtime_i columns")
    rows = []
    for (arch, app, input_size), sub in table.group_by(
        ["arch", "app", "input_size"]
    ):
        for c in cols:
            s = summarize(np.asarray(sub.column(c), dtype=float))
            rows.append(
                {
                    "arch": arch,
                    "app": app,
                    "input_size": input_size,
                    "runtime_idx": c,
                    "mean_sec": s.mean,
                    "std_sec": s.std,
                }
            )
    return Table.from_records(rows)
