"""Aggregation helpers and table combinators for :mod:`repro.frame`."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any, Callable

import numpy as np

from repro.errors import FrameError

__all__ = ["AGGREGATORS", "aggregate_column", "concat_tables"]


def _numeric(arr: np.ndarray) -> np.ndarray:
    """Coerce a column to float, raising a clear error for non-numeric data."""
    try:
        return np.asarray(arr, dtype=float)
    except (ValueError, TypeError) as exc:
        raise FrameError(f"non-numeric column cannot be aggregated: {exc}") from exc


#: Stand-in key for missing cells in ``nunique``: ``nan != nan``, so a set
#: of raw cells counts every ``nan`` occurrence as a distinct value.
_MISSING = object()


def _nunique(arr: np.ndarray) -> int:
    seen = set()
    for x in arr:
        if isinstance(x, np.generic):
            x = x.item()
        if x is None or (isinstance(x, float) and math.isnan(x)):
            x = _MISSING
        seen.add(x)
    return len(seen)


def _first(arr: np.ndarray) -> Any:
    if arr.shape[0] == 0:
        raise FrameError("'first' of an empty column")
    return arr[0]


def _last(arr: np.ndarray) -> Any:
    if arr.shape[0] == 0:
        raise FrameError("'last' of an empty column")
    return arr[-1]


#: Named aggregators usable in :meth:`repro.frame.Table.aggregate`.
AGGREGATORS: dict[str, Callable[[np.ndarray], Any]] = {
    "mean": lambda a: float(np.mean(_numeric(a))),
    "median": lambda a: float(np.median(_numeric(a))),
    "std": lambda a: float(np.std(_numeric(a), ddof=1)) if a.shape[0] > 1 else 0.0,
    "var": lambda a: float(np.var(_numeric(a), ddof=1)) if a.shape[0] > 1 else 0.0,
    "min": lambda a: float(np.min(_numeric(a))),
    "max": lambda a: float(np.max(_numeric(a))),
    "sum": lambda a: float(np.sum(_numeric(a))),
    "count": lambda a: int(a.shape[0]),
    "nunique": _nunique,
    "first": _first,
    "last": _last,
}


def aggregate_column(arr: np.ndarray, agg: str) -> Any:
    """Apply the named aggregator to a column array."""
    try:
        fn = AGGREGATORS[agg]
    except KeyError:
        raise FrameError(
            f"unknown aggregator {agg!r}; have {sorted(AGGREGATORS)}"
        ) from None
    if arr.shape[0] == 0 and agg not in ("count", "nunique"):
        raise FrameError(f"cannot {agg!r}-aggregate an empty column")
    return fn(arr)


def concat_tables(tables: Iterable["Table"]) -> "Table":  # noqa: F821
    """Vertically concatenate tables sharing the same column names.

    Column order follows the first table; every table must have exactly the
    same set of columns (order may differ).
    """
    from repro.frame.table import Table

    tables = [t for t in tables if t.num_rows or t.num_columns]
    if not tables:
        return Table()
    names = tables[0].column_names
    name_set = set(names)
    for t in tables[1:]:
        if set(t.column_names) != name_set:
            raise FrameError(
                f"cannot concat tables with differing columns: "
                f"{names} vs {t.column_names}"
            )
    cols: dict[str, np.ndarray] = {}
    for n in names:
        parts = [t.column(n) for t in tables]
        if any(p.dtype == object for p in parts):
            merged = np.empty(sum(p.shape[0] for p in parts), dtype=object)
            pos = 0
            for p in parts:
                merged[pos:pos + p.shape[0]] = p
                pos += p.shape[0]
            cols[n] = merged
        else:
            cols[n] = np.concatenate(parts)
    return Table(cols)
