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
  (format v6: :meth:`RecordBlock.to_bytes`, a JSON header line plus the
  raw column buffers), and :meth:`repro.frame.Table.from_block` consumes.

Zero-copy boundaries: ``array.array`` pickles as its machine
representation (compact result frames), converts to NumPy via
:func:`numpy.frombuffer` without copying, and extends from a sibling
block via ``frombytes`` — one memcpy, no per-element boxing.  See
``docs/COLUMNAR.md`` for the layout and format notes.
"""

from __future__ import annotations

import array
import json
import sys
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import FrameError

__all__ = [
    "COLUMN_KINDS",
    "StringTable",
    "ColumnBlock",
    "RecordBlock",
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
        """The strings in code order (as the :meth:`RecordBlock.to_bytes`
        header stores them)."""
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
        if type(width) is not int or width < 1:
            raise FrameError(
                f"column {name!r}: width must be an int >= 1, got {width!r}"
            )
        if kind == "str" and strings is None:
            raise FrameError(f"str column {name!r} needs a string table")
        self.name = name
        self.kind = kind
        self.width = width
        self.data = array.array(_typecode_for(kind))
        self.strings = strings if kind == "str" else None

    def __len__(self) -> int:
        return len(self.data) // self.width

    def extend_cells(self, values: Iterable[Any]) -> None:
        """Append many cells with one C-level ``array.extend`` pass.

        Callers hold a whole column of cells (the sweep batch packer),
        so there is no per-cell method dispatch.  Numeric cells must
        already be the column's type (``array.array`` coerces int ->
        float but rejects lossy conversions); width > 1 cells are
        width-sized sequences.  On a bad cell the column is rolled back
        to its prior length.
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


class RecordBlock:
    """Equal-length typed columns sharing one string table.

    The pipeline's packed record batch: fill its columns with
    :meth:`ColumnBlock.extend_cells`, combine with :meth:`extend`, store
    as bytes (:meth:`to_bytes` / :meth:`from_bytes`) or hand to
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
    # The byte codec
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The block as one JSON header line plus its raw column buffers.

        The header holds the row count, the schema as ``[name, kind,
        width]`` triples, the buffers' byte order and the interned
        strings; each column's ``array`` buffer follows in schema order.
        Equal blocks give equal bytes, and every float keeps its bits.
        """
        header = json.dumps({
            "n": len(self),
            "schema": [[c.name, c.kind, c.width]
                       for c in self.columns.values()],
            "byteorder": sys.byteorder,
            "strings": self.strings.to_list(),
        }, separators=(",", ":")).encode("utf-8")
        return b"".join([header, b"\n", *(c.data.tobytes()
                                           for c in self.columns.values())])

    @classmethod
    def from_bytes(cls, data: bytes) -> "RecordBlock":
        """Rebuild a block from :meth:`to_bytes` output.

        Raises :class:`~repro.errors.FrameError` on any malformed header,
        buffer length or string code — the cache maps that to quarantine.
        """
        cut = data.find(b"\n")
        try:
            header = json.loads(data[:cut]) if cut >= 0 else None
            n, schema = header["n"], header["schema"]
            strings, order = header["strings"], header["byteorder"]
            block = cls({name: (kind, width) for name, kind, width in schema})
            if len(block.columns) != len(schema):
                raise FrameError("block bytes: duplicate column name")
            for s in strings:
                block.strings.add(s)
        except (ValueError, KeyError, TypeError) as exc:
            raise FrameError(f"block bytes: bad header: {exc!r}") from exc
        if len(block.strings) != len(strings):
            raise FrameError("block bytes: duplicate interned string")
        if (type(n) is not int or n < 0 or order not in ("little", "big")
                or not isinstance(strings, list)):
            raise FrameError(f"block bytes: bad row count {n!r}, byte "
                             f"order {order!r} or string list")
        view, at = memoryview(data), cut + 1
        for col in block.columns.values():
            size = n * col.width * col.data.itemsize
            if at + size > len(data):
                raise FrameError(f"block bytes: column {col.name!r} is short")
            col.data.frombytes(view[at:at + size])
            at += size
            if order != sys.byteorder:
                col.data.byteswap()
        if at != len(data):
            raise FrameError(
                f"block bytes: {len(data) - at} trailing byte(s)"
            )
        codes = np.frombuffer(b"".join(
            c.data for c in block.columns.values() if c.kind == "str"
        ), dtype=np.int64)
        if len(codes) and (codes.min() < NONE_CODE
                           or codes.max() >= len(strings)):
            raise FrameError("block bytes: out-of-range string codes")
        return block
