"""Tuning recommendations (paper Table VII, Sec. V-4).

Two extraction passes over an enriched dataset:

- :func:`best_variable_values` — for each (app, arch), look at the
  top-performing slice of configurations and report, per variable, the
  values that appear there significantly more often than chance.  That is
  the mechanical version of the paper's "most impactful performing
  variables and values" table (e.g. NQueens -> KMP_LIBRARY=turnaround on
  every architecture).
- :func:`worst_trends` — mine the worst-performing slice for recurring
  variable-value combinations; reproduces the paper's finding that
  master binding with large thread counts is reliably catastrophic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError
from repro.frame.table import Table
from repro.runtime.icv import UNSET

__all__ = [
    "Recommendation",
    "best_variable_values",
    "recommend",
    "worst_trends",
    "WorstTrend",
]

#: Variables inspected for recommendations.
_VARIABLES = (
    "places",
    "proc_bind",
    "schedule",
    "library",
    "blocktime",
    "force_reduction",
    "align_alloc",
)


@dataclass(frozen=True)
class Recommendation:
    """Values of one variable over-represented among top configurations."""

    app: str
    arch: str
    variable: str
    #: Values ordered by how strongly they are enriched in the top slice.
    values: tuple[str, ...]
    #: Enrichment of the strongest value: P(value | top) / P(value).
    lift: float
    #: Best speedup observed in the group.
    best_speedup: float


@dataclass(frozen=True)
class WorstTrend:
    """A variable-value pair over-represented among the worst samples."""

    variable: str
    value: str
    lift: float
    mean_speedup: float


def _str_codes(table: Table, name: str) -> tuple[list[str], np.ndarray]:
    """``(labels, codes)`` of a column's ``str`` values: the distinct
    strings in sorted order and each row's index into them.

    Built from the table's cached :meth:`~repro.frame.table.Table.codes`,
    so ``str`` runs once per distinct value, not once per row; values
    that compare equal (``0`` and ``0.0`` in one object column) share
    one label.
    """
    uniques, codes = table.codes(name)
    labels, remap = np.unique(
        np.asarray([str(v) for v in uniques], dtype=str), return_inverse=True
    )
    return labels.tolist(), remap.reshape(-1)[codes]


def best_variable_values(
    table: Table,
    quantile: float = 0.05,
    min_lift: float = 1.3,
) -> list[Recommendation]:
    """Mine the top ``quantile`` of each (app, arch) group for enriched
    variable values.

    A value is reported when its frequency among the top configurations
    exceeds its overall frequency by at least ``min_lift``; ``unset``
    values are skipped (recommending the default is vacuous) unless *no*
    variable clears the bar, in which case a single pseudo-recommendation
    ``defaults`` is emitted — the paper's "A64FX: defaults" row for
    NQueens.

    Each variable is encoded once for the whole table (through its
    cached codes) and counted per group; a frequency is ``count / n``,
    which equals the mean of the per-row match flags exactly.
    """
    if "speedup" not in table:
        raise SchemaError("best_variable_values needs the 'speedup' column")
    speedup = np.asarray(table.column("speedup"), dtype=float)
    encoded = [(var, *_str_codes(table, var)) for var in _VARIABLES]
    out: list[Recommendation] = []
    for (app, arch), rows in table.group_indices(["app", "arch"]):
        group_speedup = speedup[rows]
        cutoff = np.quantile(group_speedup, 1.0 - quantile)
        top = rows[group_speedup >= cutoff]
        best_speedup = float(np.max(group_speedup))
        group_recs: list[Recommendation] = []
        for var, labels, codes in encoded:
            n_top = np.bincount(codes[top], minlength=len(labels))
            n_all = np.bincount(codes[rows], minlength=len(labels))
            candidates: list[tuple[float, str]] = []
            for code in np.flatnonzero(n_top):
                value = labels[code]
                if value in (UNSET, "0") and var != "blocktime":
                    continue
                p_top = float(n_top[code] / len(top))
                lift = p_top / float(n_all[code] / len(rows))
                if lift >= min_lift and p_top >= 0.25:
                    candidates.append((lift, value))
            if candidates:
                candidates.sort(reverse=True)
                group_recs.append(
                    Recommendation(
                        app=app,
                        arch=arch,
                        variable=var,
                        values=tuple(v for _, v in candidates),
                        lift=candidates[0][0],
                        best_speedup=best_speedup,
                    )
                )
        if not group_recs:
            group_recs.append(
                Recommendation(
                    app=app,
                    arch=arch,
                    variable="defaults",
                    values=("defaults",),
                    lift=1.0,
                    best_speedup=best_speedup,
                )
            )
        out.extend(group_recs)
    return out


def recommend(
    table: Table, app: str, arch: str, quantile: float = 0.05
) -> list[Recommendation]:
    """Recommendations for one (app, arch) pair."""
    return [
        r
        for r in best_variable_values(table, quantile=quantile)
        if r.app == app and r.arch == arch
    ]


def worst_trends(
    table: Table,
    quantile: float = 0.05,
    min_lift: float = 2.0,
    variables: Sequence[str] = ("proc_bind", "places"),
) -> list[WorstTrend]:
    """Variable-value pairs enriched among the worst-performing samples
    (none in an empty table)."""
    if "speedup" not in table:
        raise SchemaError("worst_trends needs the 'speedup' column")
    if table.num_rows == 0:
        return []
    speedup = np.asarray(table.column("speedup"), dtype=float)
    cutoff = np.quantile(speedup, quantile)
    worst = np.flatnonzero(speedup <= cutoff)
    worst_speedup = speedup[worst]

    out: list[WorstTrend] = []
    for var in variables:
        labels, codes = _str_codes(table, var)
        worst_codes = codes[worst]
        n_worst = np.bincount(worst_codes, minlength=len(labels))
        n_all = np.bincount(codes, minlength=len(labels))
        for code in np.flatnonzero(n_worst):
            p_worst = float(n_worst[code] / len(worst))
            if p_worst < 0.2:
                continue
            lift = p_worst / float(n_all[code] / len(codes))
            if lift >= min_lift:
                out.append(
                    WorstTrend(
                        variable=var,
                        value=labels[code],
                        lift=lift,
                        mean_speedup=float(
                            worst_speedup[worst_codes == code].mean()
                        ),
                    )
                )
    out.sort(key=lambda t: -t.lift)
    return out
