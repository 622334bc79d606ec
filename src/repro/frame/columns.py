"""Typed columnar record storage: the block layer under the frame.

At production sweep scale the list-of-dicts record path dominates memory
and (de)serialization: every row repeats its keys, every cell is a boxed
Python object, and every hop (worker -> result frame -> cache ->
table) re-serializes the same strings.  This module provides the packed
alternative the whole pipeline now moves:

- :class:`StringTable` — an interning table mapping each distinct string
  to a small integer code, so a million-row ``app`` column stores one
  ``"xsbench"`` plus a flat int array,
- :class:`ColumnBlock` — one typed column backed by :class:`array.array`
  (``q`` for int64, ``d`` for float64, interned codes for strings), with
  an optional fixed ``width`` for vector cells (a row's repeated-run
  runtimes) and a byte-level ``extend`` fast path,
- :class:`RecordBlock` — an ordered set of equal-length columns sharing
  one string table; the unit that sweep workers send, the cache stores
  (format v5), and :meth:`repro.frame.Table.from_block` consumes.

Zero-copy boundaries: ``array.array`` pickles as its machine
representation (compact result frames), converts to NumPy via
:func:`numpy.frombuffer` without copying, and extends from a sibling
block via ``frombytes`` — one memcpy, no per-element boxing.  See
``docs/COLUMNAR.md`` for the layout and format notes.
"""

from __future__ import annotations

import array
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import FrameError

__all__ = [
    "COLUMN_KINDS",
    "StringTable",
    "ColumnBlock",
    "RecordBlock",
    "infer_schema",
]

#: Column kind -> ``array.array`` typecode.  ``str`` columns store int64
#: interning codes; ``f8``/``i8`` store the values themselves.
COLUMN_KINDS: dict[str, str] = {"i8": "q", "f8": "d", "str": "q"}

#: Interning code for ``None`` in a ``str`` column (real codes are >= 0).
NONE_CODE = -1


class StringTable:
    """Bidirectional string <-> dense-int-code interning table.

    Codes are assigned in first-add order, so two blocks filled in the
    same record order build identical tables — the property the cache
    checksum and the differential parity check rely on.
    """

    __slots__ = ("_codes", "_strings")

    def __init__(self, strings: Iterable[str] = ()):
        self._strings: list[str] = []
        self._codes: dict[str, int] = {}
        for s in strings:
            self.add(s)

    def add(self, value: str) -> int:
        """Intern ``value``; returns its (new or existing) code."""
        code = self._codes.get(value)
        if code is None:
            if not isinstance(value, str):
                raise FrameError(
                    f"string table cannot intern {type(value).__name__}: "
                    f"{value!r}"
                )
            code = len(self._strings)
            self._codes[value] = code
            self._strings.append(value)
        return code

    def __getitem__(self, code: int) -> str:
        return self._strings[code]

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, value: str) -> bool:
        return value in self._codes

    def to_list(self) -> list[str]:
        """The strings in code order (the JSON payload representation)."""
        return list(self._strings)

    def lookup_array(self) -> np.ndarray:
        """Object array mapping code -> string, for vectorized gathers."""
        arr = np.empty(len(self._strings), dtype=object)
        arr[:] = self._strings
        return arr


def _typecode_for(kind: str) -> str:
    try:
        return COLUMN_KINDS[kind]
    except KeyError:
        raise FrameError(
            f"unknown column kind {kind!r}; have {sorted(COLUMN_KINDS)}"
        ) from None


class ColumnBlock:
    """One typed column of a :class:`RecordBlock`.

    Parameters
    ----------
    name:
        Column name.
    kind:
        ``"i8"`` (int64), ``"f8"`` (float64) or ``"str"`` (interned).
    strings:
        The owning block's shared :class:`StringTable` (``str`` columns
        only).
    width:
        Cells per row; ``width > 1`` stores fixed-size vectors (e.g. the
        per-repetition runtimes) flattened row-major.
    """

    __slots__ = ("name", "kind", "width", "data", "strings")

    def __init__(self, name: str, kind: str,
                 strings: StringTable | None = None, width: int = 1):
        if width < 1:
            raise FrameError(f"column {name!r}: width must be >= 1")
        if kind == "str" and strings is None:
            raise FrameError(f"str column {name!r} needs a string table")
        self.name = name
        self.kind = kind
        self.width = width
        self.data = array.array(_typecode_for(kind))
        self.strings = strings if kind == "str" else None

    def __len__(self) -> int:
        return len(self.data) // self.width

    def _encode(self, value: Any) -> Any:
        if self.kind == "str":
            if value is None:
                return NONE_CODE
            return self.strings.add(value)
        if self.kind == "i8":
            return int(value)
        return float(value)

    def _decode(self, raw: Any) -> Any:
        if self.kind == "str":
            return None if raw == NONE_CODE else self.strings[raw]
        return raw

    def append(self, value: Any) -> None:
        """Append one cell (a ``width``-sized sequence when width > 1)."""
        if self.width == 1:
            self.data.append(self._encode(value))
        else:
            if len(value) != self.width:
                raise FrameError(
                    f"column {self.name!r}: cell has {len(value)} "
                    f"elements, width is {self.width}"
                )
            self.data.extend(self._encode(v) for v in value)

    def cell(self, i: int) -> Any:
        """Row ``i``'s cell (a tuple when width > 1)."""
        if self.width == 1:
            return self._decode(self.data[i])
        off = i * self.width
        return tuple(
            self._decode(v) for v in self.data[off:off + self.width]
        )

    def extend_cells(self, values: Iterable[Any]) -> None:
        """Append many cells with one C-level ``array.extend`` pass.

        The bulk counterpart of :meth:`append`: callers that already
        hold a whole column of cells (the sweep batch packer) skip the
        per-cell method dispatch.  Numeric cells must already be the
        column's type (``array.array`` coerces int -> float but rejects
        lossy conversions); width > 1 cells are width-sized sequences.
        On a bad cell the column is rolled back to its prior length.
        """
        start = len(self.data)
        try:
            if self.kind == "str":
                add = self.strings.add
                self.data.extend(
                    NONE_CODE if v is None else add(v) for v in values
                )
            elif self.width == 1:
                self.data.extend(values)
            else:
                self.data.extend(self._flat_cells(values))
        except FrameError:
            del self.data[start:]
            raise
        except TypeError as exc:
            del self.data[start:]
            raise FrameError(
                f"column {self.name!r}: cannot bulk-append cells: {exc}"
            ) from exc

    def _flat_cells(self, values: Iterable[Any]):
        for v in values:
            if len(v) != self.width:
                raise FrameError(
                    f"column {self.name!r}: cell has {len(v)} "
                    f"elements, width is {self.width}"
                )
            yield from v

    def extend_block(self, other: "ColumnBlock",
                     code_map: Sequence[int] | None = None) -> None:
        """Append ``other``'s cells: one ``frombytes`` memcpy when the
        string codes need no remapping, else a vectorized gather."""
        if (other.kind, other.width) != (self.kind, self.width):
            raise FrameError(
                f"column {self.name!r}: cannot extend "
                f"{self.kind}/w{self.width} from "
                f"{other.kind}/w{other.width}"
            )
        if self.kind == "str" and code_map is not None:
            codes = np.frombuffer(other.data, dtype=np.int64)
            remap = np.asarray(code_map, dtype=np.int64)
            # NONE_CODE survives remapping untouched.
            out = np.where(codes >= 0, remap[np.maximum(codes, 0)], codes)
            self.data.frombytes(out.tobytes())
        else:
            self.data.frombytes(other.data.tobytes())

    def to_numpy(self) -> np.ndarray:
        """The column as a NumPy array (rows x width when width > 1).

        Numeric columns are zero-copy views over the ``array.array``
        buffer; ``str`` columns gather through the interning table into
        an object array (matching :class:`repro.frame.Table`'s dtype
        conventions).  Treat the result as read-only.
        """
        raw = np.frombuffer(self.data, dtype=np.int64 if
                            self.kind != "f8" else np.float64)
        if self.kind == "str":
            lookup = self.strings.lookup_array()
            out = np.empty(len(raw), dtype=object)
            valid = raw >= 0
            out[valid] = lookup[raw[valid]]
            out[~valid] = None
        else:
            out = raw
        if self.width > 1:
            out = out.reshape(-1, self.width)
        return out

    def payload_data(self) -> list:
        """The raw cells as a JSON-safe flat list (codes for strings)."""
        return self.data.tolist()


def infer_schema(record: Mapping[str, Any]) -> dict[str, tuple[str, int]]:
    """Schema (name -> (kind, width)) from one exemplar record.

    ``bool`` is deliberately unsupported (it would round-trip as int);
    mixed-type columns belong on the generic dict path.
    """
    schema: dict[str, tuple[str, int]] = {}
    for name, value in record.items():
        if isinstance(value, str) or value is None:
            schema[name] = ("str", 1)
        elif isinstance(value, bool):
            raise FrameError(f"column {name!r}: bool cells not supported")
        elif isinstance(value, int):
            schema[name] = ("i8", 1)
        elif isinstance(value, float):
            schema[name] = ("f8", 1)
        elif isinstance(value, (tuple, list)) and value and all(
            isinstance(v, float) for v in value
        ):
            schema[name] = ("f8", len(value))
        else:
            raise FrameError(
                f"column {name!r}: cannot infer a typed column from "
                f"{type(value).__name__} cell {value!r}"
            )
    return schema


class RecordBlock:
    """Equal-length typed columns sharing one string table.

    The pipeline's packed record batch: build with :meth:`append` /
    :meth:`from_records`, combine with :meth:`extend`, ship as a payload
    dict (:meth:`to_payload` / :meth:`from_payload`) or hand to
    :meth:`repro.frame.Table.from_block`.
    """

    def __init__(self, schema: Mapping[str, tuple[str, int] | str]):
        self.strings = StringTable()
        self.columns: dict[str, ColumnBlock] = {}
        for name, spec in schema.items():
            kind, width = (spec, 1) if isinstance(spec, str) else spec
            self.columns[str(name)] = ColumnBlock(
                str(name), kind, strings=self.strings, width=width
            )
        if not self.columns:
            raise FrameError("a RecordBlock needs at least one column")

    @property
    def schema(self) -> dict[str, tuple[str, int]]:
        """Normalized schema: column name -> ``(kind, width)``."""
        return {c.name: (c.kind, c.width) for c in self.columns.values()}

    @property
    def column_names(self) -> list[str]:
        """Column names in schema order."""
        return list(self.columns)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __repr__(self) -> str:
        return (f"RecordBlock({len(self)} rows x {len(self.columns)} cols, "
                f"{len(self.strings)} interned strings)")

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record; keys must match the schema exactly."""
        if len(record) != len(self.columns):
            raise FrameError(
                f"record has {len(record)} fields, schema has "
                f"{len(self.columns)}"
            )
        for name, col in self.columns.items():
            try:
                col.append(record[name])
            except KeyError:
                raise FrameError(
                    f"record missing column {name!r}"
                ) from None

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, Any]],
        schema: Mapping[str, tuple[str, int] | str] | None = None,
    ) -> "RecordBlock":
        """Pack dict records (schema inferred from the first record)."""
        if schema is None:
            if not records:
                raise FrameError(
                    "cannot infer a schema from zero records; pass one"
                )
            schema = infer_schema(records[0])
        block = cls(schema)
        for rec in records:
            block.append(rec)
        return block

    def extend(self, other: "RecordBlock") -> None:
        """Append all of ``other``'s rows (schemas must match).

        Numeric columns extend with one memcpy each.  String columns
        remap ``other``'s codes through a merged table — also a single
        vectorized gather, and skipped entirely when ``other`` shares
        this block's table object (the same-producer fast path).
        """
        if other.schema != self.schema:
            raise FrameError(
                f"cannot extend: schema mismatch ({self.schema} vs "
                f"{other.schema})"
            )
        code_map: list[int] | None = None
        if other.strings is not self.strings:
            code_map = [self.strings.add(s) for s in other.strings.to_list()]
        for name, col in self.columns.items():
            col.extend_block(
                other.columns[name],
                code_map=code_map if col.kind == "str" else None,
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def record(self, i: int) -> dict[str, Any]:
        """Row ``i`` as a plain dict."""
        return {name: col.cell(i) for name, col in self.columns.items()}

    def to_records(self) -> list[dict[str, Any]]:
        """All rows as dicts (the unpacked representation)."""
        return [self.record(i) for i in range(len(self))]

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Every column as a NumPy array (see
        :meth:`ColumnBlock.to_numpy`)."""
        return {name: col.to_numpy() for name, col in self.columns.items()}

    def nbytes(self) -> int:
        """Packed payload size: column buffers plus the interned strings."""
        return sum(
            c.data.itemsize * len(c.data) for c in self.columns.values()
        ) + sum(len(s) for s in self.strings.to_list())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """A JSON-safe dict: schema, interned strings, flat cell lists.

        Floats serialize via ``repr`` under :func:`json.dumps`, so a
        payload round-trips bit-identically — the property cache format
        v5's content checksum depends on.
        """
        return {
            "n": len(self),
            "strings": self.strings.to_list(),
            "columns": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "width": c.width,
                    "data": c.payload_data(),
                }
                for c in self.columns.values()
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RecordBlock":
        """Rebuild a block from :meth:`to_payload` output.

        Raises :class:`~repro.errors.FrameError` on any malformed
        payload — the cache maps that to quarantine.
        """
        try:
            strings = payload["strings"]
            columns = payload["columns"]
            n = payload["n"]
            if not isinstance(strings, list) or not isinstance(columns, list):
                raise FrameError("columnar payload: malformed fields")
            schema = {
                c["name"]: (c["kind"], c["width"]) for c in columns
            }
        except (KeyError, TypeError) as exc:
            raise FrameError(f"columnar payload: {exc!r}") from exc
        block = cls(schema)
        for s in strings:
            block.strings.add(s)
        if len(block.strings) != len(strings):
            raise FrameError("columnar payload: duplicate interned string")
        for spec in columns:
            col = block.columns[spec["name"]]
            try:
                col.data.fromlist(spec["data"])
            except (TypeError, OverflowError) as exc:
                raise FrameError(
                    f"columnar payload: column {spec['name']!r}: {exc}"
                ) from exc
            if col.kind == "str":
                codes = np.frombuffer(col.data, dtype=np.int64)
                if len(codes) and (
                    int(codes.max(initial=NONE_CODE)) >= len(block.strings)
                    or int(codes.min(initial=0)) < NONE_CODE
                ):
                    raise FrameError(
                        f"columnar payload: column {spec['name']!r} has "
                        "out-of-range string codes"
                    )
            if len(col) != n:
                raise FrameError(
                    f"columnar payload: column {spec['name']!r} has "
                    f"{len(col)} rows, header says {n}"
                )
        return block
