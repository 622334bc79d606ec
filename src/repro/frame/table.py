"""Columnar table backed by NumPy arrays.

:class:`Table` stores each column as a 1-D :class:`numpy.ndarray`.  Numeric
columns use native dtypes; string / mixed columns use ``object`` arrays.
All transforming methods return *new* tables; the underlying arrays may be
shared (views) where that is safe, so treat tables as immutable.

The design intentionally mirrors the subset of the pandas API the paper's
analysis scripts rely on (``groupby`` + aggregate, boolean filtering,
column edits) without attempting to be a general dataframe.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import ColumnError, LengthMismatch
from repro.frame import ops
from repro.frame.columns import RecordBlock

__all__ = ["Table"]


def _as_column(values: Any) -> np.ndarray:
    """Coerce ``values`` into a 1-D column array.

    Numeric sequences become native numeric arrays; anything containing
    strings or mixed types becomes an ``object`` array so we never silently
    stringify numbers the way ``np.array(["a", 1])`` would.
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        values = list(values)
        try:
            arr = np.asarray(values)
        except (ValueError, TypeError):  # ragged input
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
    if arr.ndim != 1:
        raise LengthMismatch(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in ("U", "S"):
        # Keep strings as object arrays: uniform behaviour for group keys and
        # no silent truncation when longer strings are appended later.
        arr = arr.astype(object)
    return arr


def _nan_for_missing(values: list) -> Any:
    """Turn a numeric-except-``None`` record column into a float column.

    ``None`` placeholders (missing record keys) become ``nan`` so the
    column keeps a float dtype instead of silently degrading to
    ``object``.  Columns with any non-numeric value — or no
    numeric value at all — are returned untouched.
    """
    has_none = False
    has_number = False
    for v in values:
        if v is None:
            has_none = True
        elif isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(
            v, (bool, np.bool_)
        ):
            has_number = True
        else:
            return values
    if not (has_none and has_number):
        return values
    return np.asarray(
        [np.nan if v is None else float(v) for v in values], dtype=float
    )


def _group_key(row_values: tuple) -> tuple:
    """Normalize a tuple of cell values into a hashable group key."""
    out = []
    for v in row_values:
        if isinstance(v, (np.integer,)):
            out.append(int(v))
        elif isinstance(v, (np.floating,)):
            out.append(float(v))
        elif isinstance(v, np.str_):
            out.append(str(v))
        else:
            out.append(v)
    return tuple(out)


def _unique_first(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` renumbered by first appearance: ``(uniques, codes)``
    with ``uniques`` in the order their first cell appears."""
    uniques, first, inverse = np.unique(
        arr, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    return uniques[order], rank[inverse.reshape(-1)]


def _factorize(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(uniques, codes)`` of one column, numbered by first appearance.

    Two cells share a code exactly when a ``dict`` would treat them as one
    key after ``np.generic.item()``, so each ``nan`` cell is a key of its
    own and ``codes`` equals ``LabelEncoder().fit_transform(arr)`` on
    columns without ``nan`` (the encoder makes all ``nan`` cells one
    category).  Integer, boolean, string and ``nan``-free float columns
    take a vectorized ``np.unique`` path; object columns (where a ``dict``
    also beats sorting Python objects) and ``nan`` floats take the dict
    path.  The dict sees only run starts: one vectorized ``!=`` against
    the previous cell finds them, and each run repeats its start's code.
    Cells that ``!=`` calls equal are one ``dict`` key too, and a ``nan``
    cell always starts a run, so this numbers cells as the per-cell dict
    loop would.  Sweep tables are batch-contiguous, so runs are long.
    """
    kind = arr.dtype.kind
    if kind in ("i", "u", "b", "U", "S") or (
            kind == "f" and not np.isnan(arr).any()):
        return _unique_first(arr)
    n = arr.shape[0]
    is_start = np.ones(n, dtype=bool)
    np.not_equal(arr[1:], arr[:-1], out=is_start[1:])
    starts = np.nonzero(is_start)[0]
    index: dict[Any, int] = {}
    generic = np.generic
    run_codes = np.fromiter(
        (index.setdefault(v.item() if isinstance(v, generic) else v,
                          len(index)) for v in arr[starts]),
        dtype=np.int64, count=starts.shape[0],
    )
    uniques = np.empty(len(index), dtype=object)
    for j, v in enumerate(index):
        uniques[j] = v
    return uniques, np.repeat(run_codes, np.diff(starts, append=n))


def _composite_codes(
    factorized: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """First-appearance codes over row *tuples* of the key columns, from
    each column's :func:`_factorize` result: distinct tuples get distinct
    codes, equal tuples share one."""
    combined = factorized[0][1]
    cardinality = max(factorized[0][0].shape[0], 1)
    for uniques, codes in factorized[1:]:
        k = max(uniques.shape[0], 1)
        if cardinality * k > 2**62:  # keep the mixed code within int64
            combined = _unique_first(combined)[1]
            cardinality = int(combined.max(initial=0)) + 1
        combined = combined * k + codes
        cardinality *= k
    if len(factorized) == 1:
        return combined
    return _unique_first(combined)[1]  # restore first-appearance numbering


class Table:
    """A columnar table: ordered mapping of column name -> 1-D array.

    Parameters
    ----------
    columns:
        Mapping of column name to array-like.  All columns must share one
        length.

    Examples
    --------
    >>> t = Table({"app": ["cg", "cg", "bt"], "runtime": [1.0, 1.2, 3.0]})
    >>> t.num_rows
    3
    >>> t.filter(t["runtime"] > 1.1).column("app").tolist()
    ['cg', 'bt']
    """

    def __init__(self, columns: Mapping[str, Any] | None = None):
        self._columns: dict[str, np.ndarray] = {}
        self._length = 0
        self._codes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if columns:
            first = True
            for name, values in columns.items():
                arr = _as_column(values)
                if first:
                    self._length = arr.shape[0]
                    first = False
                elif arr.shape[0] != self._length:
                    raise LengthMismatch(
                        f"column {name!r} has length {arr.shape[0]}, "
                        f"expected {self._length}"
                    )
                self._columns[str(name)] = arr

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _derived(columns: dict[str, np.ndarray], length: int) -> "Table":
        """A table over already-validated columns, with an empty
        :meth:`codes` cache."""
        t = Table.__new__(Table)
        t._columns = columns
        t._length = length
        t._codes = {}
        return t

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "Table":
        """Build a table from an iterable of dict rows.

        Missing keys become ``None`` in object columns / ``nan`` in float
        columns: a column whose present values are all numeric is coerced
        to float64 with ``nan`` filling the gaps, so it stays usable in
        arithmetic and round-trips through CSV.  Column order follows
        first appearance.
        """
        records = list(records)
        names: list[str] = []
        seen: set[str] = set()
        for rec in records:
            for key in rec:
                if key not in seen:
                    seen.add(key)
                    names.append(key)
        cols: dict[str, list] = {n: [] for n in names}
        for rec in records:
            for n in names:
                cols[n].append(rec.get(n))
        return cls({n: _nan_for_missing(cols[n]) for n in names})

    @classmethod
    def from_block(
        cls,
        block: RecordBlock,
        vector_names: Mapping[str, Sequence[str]] | None = None,
    ) -> "Table":
        """Build a table directly from a packed :class:`RecordBlock`.

        Numeric columns are zero-copy views over the block's machine
        buffers; string columns decode through the block's interning
        table into ``object`` arrays (``None`` for null codes).  A vector
        column of width ``w > 1`` expands into ``w`` scalar columns named
        per ``vector_names[name]`` (default ``f"{name}_{j}"``), matching
        what :meth:`from_records` infers from exploded rows.
        """
        vector_names = dict(vector_names or {})
        cols: dict[str, np.ndarray] = {}
        for name, arr in block.to_arrays().items():
            if arr.ndim == 1:
                if name in vector_names:  # width-1 vector column
                    arr = arr.reshape(-1, 1)
                else:
                    cols[name] = arr
                    continue
            sub = vector_names.get(name) or [
                f"{name}_{j}" for j in range(arr.shape[1])
            ]
            if len(sub) != arr.shape[1]:
                raise ColumnError(
                    f"vector column {name!r} has width {arr.shape[1]}, "
                    f"got {len(sub)} names"
                )
            for j, sub_name in enumerate(sub):
                cols[str(sub_name)] = arr[:, j]
        return cls(cols)

    @classmethod
    def empty(cls, names: Sequence[str]) -> "Table":
        """An empty table with the given column names."""
        return cls({n: np.empty(0, dtype=object) for n in names})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._length

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_rows, num_columns)``."""
        return (self._length, len(self._columns))

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def column(self, name: str) -> np.ndarray:
        """The array backing column ``name`` (do not mutate)."""
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnError(
                f"no column {name!r}; have {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(uniques, codes)`` of column ``name``: its distinct values in
        order of first appearance and each row's index into them.

        Cells are equal under ``dict`` key equality (``np.generic`` cells
        as their ``.item()``; each ``nan`` cell its own value), so
        ``codes`` equals :class:`~repro.mlkit.preprocess.LabelEncoder`'s
        ``fit_transform(column)`` on columns without ``nan`` (the encoder
        makes all ``nan`` cells one category).  Computed on first use
        and cached on this table; tables derived from it start with an
        empty cache.  Both arrays are read-only.  Object and ``nan``
        float columns cost one ``dict`` lookup per run of equal
        neighbouring cells, not per cell.
        """
        cached = self._codes.get(name)
        if cached is None:
            cached = _factorize(self.column(name))
            for arr in cached:
                arr.setflags(write=False)
            self._codes[name] = cached
        return cached

    def group_codes(self, names: Sequence[str]) -> np.ndarray:
        """One code per row for its tuple of values in columns ``names``,
        numbered by first appearance: rows share a code exactly when
        they share every key value under :meth:`codes`' equality."""
        if not names:
            return np.zeros(self._length, dtype=np.int64)
        return _composite_codes([self.codes(n) for n in names])

    def row(self, index: int) -> dict[str, Any]:
        """Row ``index`` as a plain dict of Python scalars."""
        if not -self._length <= index < self._length:
            raise IndexError(f"row {index} out of range for {self._length} rows")
        out: dict[str, Any] = {}
        for name, arr in self._columns.items():
            v = arr[index]
            if isinstance(v, np.generic):
                v = v.item()
            out[name] = v
        return out

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dicts (slow path — prefer column ops)."""
        for i in range(self._length):
            yield self.row(i)

    def to_records(self) -> list[dict[str, Any]]:
        """All rows as a list of dicts (column-at-a-time fast path)."""
        names = self.column_names
        lists = []
        for arr in self._columns.values():
            if arr.dtype == object:
                lists.append(
                    [v.item() if isinstance(v, np.generic) else v for v in arr]
                )
            else:
                lists.append(arr.tolist())
        return [dict(zip(names, row)) for row in zip(*lists)]

    def to_dict(self) -> dict[str, list]:
        """Columns as plain Python lists."""
        return {n: [x.item() if isinstance(x, np.generic) else x for x in arr]
                for n, arr in self._columns.items()}

    def __repr__(self) -> str:
        return f"Table({self._length} rows x {len(self._columns)} cols: {self.column_names})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names or len(self) != len(other):
            return False
        for name in self.column_names:
            a, b = self._columns[name], other._columns[name]
            if a.dtype.kind == "f" and b.dtype.kind == "f":
                if not np.allclose(a, b, equal_nan=True):
                    return False
            elif not all(x == y for x, y in zip(a, b)):
                return False
        return True

    # ------------------------------------------------------------------
    # Column-level transforms
    # ------------------------------------------------------------------
    def with_column(self, name: str, values: Any) -> "Table":
        """A new table with column ``name`` added or replaced."""
        arr = _as_column(values)
        if self._columns and arr.shape[0] != self._length:
            raise LengthMismatch(
                f"new column {name!r} has length {arr.shape[0]}, "
                f"table has {self._length} rows"
            )
        cols = dict(self._columns)
        cols[name] = arr
        return Table._derived(
            cols, arr.shape[0] if not self._columns else self._length
        )

    def without_columns(self, names: Iterable[str]) -> "Table":
        """A new table with the given columns removed."""
        drop = set(names)
        missing = drop - set(self._columns)
        if missing:
            raise ColumnError(f"cannot drop missing columns {sorted(missing)}")
        return Table._derived(
            {n: a for n, a in self._columns.items() if n not in drop},
            self._length,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """A new table with columns renamed per ``mapping``."""
        missing = set(mapping) - set(self._columns)
        if missing:
            raise ColumnError(f"cannot rename missing columns {sorted(missing)}")
        cols = {mapping.get(n, n): a for n, a in self._columns.items()}
        if len(cols) != len(self._columns):
            raise ColumnError("rename would collapse two columns into one")
        return Table._derived(cols, self._length)

    # ------------------------------------------------------------------
    # Row-level transforms
    # ------------------------------------------------------------------
    def filter(self, mask: Any) -> "Table":
        """Rows where boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._length,):
            raise LengthMismatch(
                f"mask has shape {mask.shape}, expected ({self._length},)"
            )
        return self.take(np.nonzero(mask)[0])

    def take(self, indices: Any) -> "Table":
        """Rows at the given integer positions, in that order."""
        indices = np.asarray(indices, dtype=np.intp)
        return Table._derived(
            {n: a[indices] for n, a in self._columns.items()},
            int(indices.shape[0]),
        )

    def unique(self, name: str) -> list:
        """Distinct values of a column, in order of first appearance:
        :meth:`codes`' uniques as Python scalars."""
        return self.codes(name)[0].tolist()

    # ------------------------------------------------------------------
    # Group-by / aggregation
    # ------------------------------------------------------------------
    def group_by(self, names: str | Sequence[str]) -> list[tuple[tuple, "Table"]]:
        """Group rows by one or more key columns.

        Returns ``[(key_tuple, subtable), ...]`` with groups ordered by first
        appearance.  ``key_tuple`` always has one element per key column even
        for a single key.  The groups are :meth:`group_indices`' row sets.
        """
        return [(key, self.take(idx)) for key, idx in self.group_indices(names)]

    def group_indices(
        self, names: str | Sequence[str]
    ) -> list[tuple[tuple, np.ndarray]]:
        """Row positions of each group: ``[(key_tuple, row_indices), ...]``.

        Same groups, keys and order as :meth:`group_by`, without building
        the subtables; rows within a group keep table order.

        Each key column is factorized once per table through
        :meth:`codes`, whose key equality matches the hash-based python
        path (the reference semantics); the row tuples' codes are then
        gathered with one stable sort.
        """
        if isinstance(names, str):
            names = [names]
        cols = [self.column(n) for n in names]
        if self._length == 0:
            return []
        codes = self.group_codes(names)
        order = np.argsort(codes, kind="stable")
        boundaries = np.nonzero(np.diff(codes[order]))[0] + 1
        return [
            (_group_key(tuple(c[int(idx[0])] for c in cols)), idx)
            for idx in np.split(order, boundaries)
        ]

    def _group_indices_python(
        self, cols: Sequence[np.ndarray]
    ) -> list[tuple[tuple, np.ndarray]]:
        groups: dict[tuple, list[int]] = {}
        for i in range(self._length):
            key = _group_key(tuple(c[i] for c in cols))
            groups.setdefault(key, []).append(i)
        return [(key, np.asarray(idx, dtype=np.intp))
                for key, idx in groups.items()]

    def _group_by_python(
        self, names: Sequence[str]
    ) -> list[tuple[tuple, "Table"]]:
        """Hash-based reference implementation of :meth:`group_by`."""
        cols = [self.column(n) for n in names]
        return [(key, self.take(idx))
                for key, idx in self._group_indices_python(cols)]

    def aggregate(
        self,
        by: str | Sequence[str],
        aggs: Mapping[str, str | Callable[[np.ndarray], Any]],
    ) -> "Table":
        """Group by ``by`` and aggregate value columns.

        ``aggs`` maps column name -> aggregator, either one of the names in
        :data:`repro.frame.ops.AGGREGATORS` (``"mean"``, ``"min"``, ...) or a
        callable taking the group's column array.  The output contains the
        key columns followed by one column per aggregation, named
        ``f"{col}_{agg}"`` for string aggregators and ``col`` for callables.
        """
        if isinstance(by, str):
            by = [by]
        groups = self.group_by(by)
        records: list[dict[str, Any]] = []
        for key, sub in groups:
            rec: dict[str, Any] = dict(zip(by, key))
            for col_name, agg in aggs.items():
                if isinstance(agg, str):
                    out_name = f"{col_name}_{agg}"
                    value = ops.aggregate_column(sub.column(col_name), agg)
                else:
                    out_name = col_name
                    value = agg(sub.column(col_name))
                if isinstance(value, np.generic):
                    value = value.item()
                rec[out_name] = value
            records.append(rec)
        return Table.from_records(records)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self, max_rows: int = 40, float_fmt: str = "{:.4g}") -> str:
        """A fixed-width text rendering (for CLI reports and docs)."""
        names = self.column_names
        shown = min(self._length, max_rows)

        def fmt(v: Any) -> str:
            if isinstance(v, (float, np.floating)):
                return float_fmt.format(float(v))
            return str(v)

        body = [[fmt(self._columns[n][i]) for n in names] for i in range(shown)]
        widths = [
            max(len(n), *(len(r[k]) for r in body)) if body else len(n)
            for k, n in enumerate(names)
        ]
        lines = [
            "  ".join(n.ljust(w) for n, w in zip(names, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in body]
        if shown < self._length:
            lines.append(f"... ({self._length - shown} more rows)")
        return "\n".join(lines)
