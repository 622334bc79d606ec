"""Unit tests for the typed columnar block layer (repro.frame.columns)."""

import array
import json
import math
import pickle
import struct
import sys

import numpy as np
import pytest

from repro.errors import ColumnError, FrameError
from repro.frame.columns import (
    NONE_CODE,
    ColumnBlock,
    RecordBlock,
    StringTable,
)
from repro.frame.table import Table


@pytest.fixture
def schema():
    return {"app": "str", "threads": "i8", "runtimes": ("f8", 2)}


def filled(schema, **cells):
    """A block of ``schema`` with each column's cells bulk-appended."""
    block = RecordBlock(schema)
    for name, values in cells.items():
        block.columns[name].extend_cells(values)
    return block


@pytest.fixture
def block(schema):
    return filled(schema, app=["cg", "ep", "cg"], threads=[8, 16, 32],
                  runtimes=[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])


class TestStringTable:
    def test_interns_first_add_order(self):
        t = StringTable()
        assert t.add("b") == 0
        assert t.add("a") == 1
        assert t.add("b") == 0  # existing code, no new entry
        assert len(t) == 2
        assert t.to_list() == ["b", "a"]
        assert t[0] == "b" and t[1] == "a"
        assert "a" in t and "z" not in t

    def test_non_string_rejected(self):
        with pytest.raises(FrameError, match="cannot intern"):
            StringTable().add(3)

    def test_lookup_array_gathers(self):
        t = StringTable(["x", "y"])
        arr = t.lookup_array()
        assert arr.dtype == object
        assert arr[np.asarray([1, 0, 1])].tolist() == ["y", "x", "y"]


class TestColumnBlock:
    def test_str_column_needs_table(self):
        with pytest.raises(FrameError, match="string table"):
            ColumnBlock("app", "str")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FrameError, match="unknown column kind"):
            ColumnBlock("x", "f4")

    def test_width_must_be_positive(self):
        with pytest.raises(FrameError, match="width"):
            ColumnBlock("x", "f8", width=0)
        with pytest.raises(FrameError, match="width"):
            ColumnBlock("x", "f8", width="2")

    def test_none_encodes_to_sentinel(self):
        col = ColumnBlock("app", "str", strings=StringTable())
        col.extend_cells([None, "cg"])
        assert col.data[0] == NONE_CODE
        assert col.to_numpy().tolist() == [None, "cg"]

    def test_vector_cell_roundtrip(self):
        col = ColumnBlock("rt", "f8", width=3)
        col.extend_cells([(1.0, 2.0, 3.0)])
        assert len(col) == 1
        assert col.to_numpy().tolist() == [[1.0, 2.0, 3.0]]

    def test_wrong_vector_length_rejected(self):
        col = ColumnBlock("rt", "f8", width=2)
        with pytest.raises(FrameError, match="width"):
            col.extend_cells([(1.0, 2.0), (1.0, 2.0, 3.0)])
        assert len(col) == 0  # rolled back

    def test_to_numpy_zero_copy_numeric(self):
        col = ColumnBlock("n", "i8")
        col.extend_cells([7, 9])
        arr = col.to_numpy()
        assert arr.dtype == np.int64 and arr.tolist() == [7, 9]
        assert arr.base is not None  # a frombuffer view, not a copy

    def test_to_numpy_width_reshapes(self):
        col = ColumnBlock("rt", "f8", width=2)
        col.extend_cells([(1.0, 2.0), (3.0, 4.0)])
        assert col.to_numpy().shape == (2, 2)

    def test_extend_block_kind_mismatch(self):
        a, b = ColumnBlock("x", "i8"), ColumnBlock("x", "f8")
        with pytest.raises(FrameError, match="cannot extend"):
            a.extend_block(b)


class TestRecordBlock:
    def test_roundtrip(self, block):
        assert len(block) == 3
        arrays = block.to_arrays()
        assert arrays["app"].tolist() == ["cg", "ep", "cg"]
        assert arrays["threads"].tolist() == [8, 16, 32]
        assert arrays["runtimes"][1].tolist() == [3.0, 4.0]

    def test_shared_string_table_interns_once(self, block):
        assert len(block.strings) == 2  # "cg", "ep"

    def test_empty_schema_rejected(self):
        with pytest.raises(FrameError, match="at least one column"):
            RecordBlock({})

    def test_extend_remaps_string_codes(self, schema):
        a = filled(schema, app=["cg"], threads=[1], runtimes=[(1.0, 1.0)])
        # An independent table: different codes.
        b = filled(schema, app=["ep", "cg", None], threads=[2, 3, 4],
                   runtimes=[(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
        a.extend(b)
        assert len(a) == 4
        assert a.to_arrays()["app"].tolist() == ["cg", "ep", "cg", None]

    def test_extend_same_table_skips_remap(self, schema):
        a = filled(schema, app=["cg"], threads=[1], runtimes=[(1.0, 1.0)])
        b = RecordBlock(schema)
        b.strings = a.strings  # same producer: shared table object
        b.columns = {
            n: ColumnBlock(n, c.kind, strings=a.strings, width=c.width)
            for n, c in a.columns.items()
        }
        b.columns["app"].extend_cells(["ep"])
        b.columns["threads"].extend_cells([2])
        b.columns["runtimes"].extend_cells([(2.0, 2.0)])
        a.extend(b)
        assert a.to_arrays()["app"].tolist() == ["cg", "ep"]

    def test_extend_schema_mismatch_rejected(self, block):
        other = RecordBlock({"app": "str"})
        with pytest.raises(FrameError, match="schema mismatch"):
            block.extend(other)

    def test_nbytes_counts_buffers_and_strings(self, block):
        # 3 rows x (1 str code + 1 int + 2 floats) x 8 bytes + "cg" + "ep"
        assert block.nbytes() == 3 * 4 * 8 + 4

    def test_pickle_roundtrip_is_compact(self, block):
        clone = pickle.loads(pickle.dumps(block))
        assert clone.to_bytes() == block.to_bytes()


def with_header(data, edit):
    """``data`` (block bytes) with ``edit`` applied to its header."""
    line, buffers = data.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    return json.dumps(header).encode("utf-8") + b"\n" + buffers


class TestPayload:
    """The byte codec: ``to_bytes`` / ``from_bytes``."""

    def test_bytes_roundtrip_bit_identical(self, block):
        data = block.to_bytes()
        clone = RecordBlock.from_bytes(data)
        assert clone.schema == block.schema
        assert clone.strings.to_list() == block.strings.to_list()
        for name, col in block.columns.items():
            assert clone.columns[name].data == col.data
        assert clone.to_bytes() == data

    def test_layout_is_a_header_line_then_the_buffers(self, block):
        data = block.to_bytes()
        line, buffers = data.split(b"\n", 1)
        assert json.loads(line) == {
            "n": 3,
            "schema": [["app", "str", 1], ["threads", "i8", 1],
                       ["runtimes", "f8", 2]],
            "byteorder": sys.byteorder,
            "strings": ["cg", "ep"],
        }
        assert buffers == b"".join(
            c.data.tobytes() for c in block.columns.values())

    @pytest.mark.parametrize("width", [1, 3])
    def test_special_floats_keep_their_bits(self, width):
        specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324]
        cells = specials if width == 1 else [
            tuple(specials[(i + j) % len(specials)] for j in range(width))
            for i in range(len(specials))
        ]
        block = filled({"app": "str", "runtimes": ("f8", width)},
                       app=["cg"] * len(specials), runtimes=cells)
        clone = RecordBlock.from_bytes(block.to_bytes())
        assert clone.columns["runtimes"].data.tobytes() \
            == block.columns["runtimes"].data.tobytes()
        assert math.copysign(1.0, clone.columns["runtimes"].data[0]) == -1.0

    def test_empty_block_roundtrips(self, schema):
        clone = RecordBlock.from_bytes(RecordBlock(schema).to_bytes())
        assert len(clone) == 0 and clone.schema == RecordBlock(schema).schema

    def test_foreign_byte_order_is_swapped(self, block):
        other = "big" if sys.byteorder == "little" else "little"
        swapped = []
        for col in block.columns.values():
            data = array.array(col.data.typecode, col.data)
            data.byteswap()
            swapped.append(data.tobytes())
        line = block.to_bytes().split(b"\n", 1)[0]
        data = with_header(line + b"\n" + b"".join(swapped),
                           lambda h: h.update(byteorder=other))
        assert RecordBlock.from_bytes(data).to_bytes() == block.to_bytes()

    def test_missing_field_rejected(self, block):
        data = with_header(block.to_bytes(), lambda h: h.pop("strings"))
        with pytest.raises(FrameError, match="block bytes"):
            RecordBlock.from_bytes(data)

    def test_row_count_mismatch_rejected(self, block):
        data = with_header(block.to_bytes(), lambda h: h.update(n=99))
        with pytest.raises(FrameError, match="short"):
            RecordBlock.from_bytes(data)
        data = with_header(block.to_bytes(), lambda h: h.update(n=2))
        with pytest.raises(FrameError, match="trailing"):
            RecordBlock.from_bytes(data)

    def test_out_of_range_string_code_rejected(self, block):
        line, buffers = block.to_bytes().split(b"\n", 1)
        bad = struct.pack("=q", 57) + buffers[8:]
        with pytest.raises(FrameError, match="out-of-range"):
            RecordBlock.from_bytes(line + b"\n" + bad)

    def test_duplicate_interned_string_rejected(self, block):
        data = with_header(block.to_bytes(),
                           lambda h: h.update(strings=["cg", "cg"]))
        with pytest.raises(FrameError, match="duplicate"):
            RecordBlock.from_bytes(data)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(n="3"),
        lambda h: h.update(n=-1),
        lambda h: h.update(byteorder="middle"),
        lambda h: h["schema"][0].__setitem__(2, "x"),
        lambda h: h["schema"][0].__setitem__(1, "f4"),
        lambda h: h["schema"].__setitem__(1, ["app", "i8", 1]),
        lambda h: h.update(schema="app"),
        lambda h: h.update(strings=[1, 2]),
    ], ids=["str-count", "negative-count", "byte-order", "str-width",
            "unknown-kind", "duplicate-column", "flat-schema",
            "non-str-strings"])
    def test_malformed_header_rejected(self, block, edit):
        with pytest.raises(FrameError):
            RecordBlock.from_bytes(with_header(block.to_bytes(), edit))

    def test_no_header_line_rejected(self, block):
        with pytest.raises(FrameError, match="block bytes"):
            RecordBlock.from_bytes(b"no header line")


class TestTableFromBlock:
    def test_columns_and_dtypes(self, block):
        t = Table.from_block(block)
        assert t.column_names == [
            "app", "threads", "runtimes_0", "runtimes_1"
        ]
        assert t.column("app").dtype == object
        assert t.column("threads").dtype == np.int64
        assert t.column("runtimes_1").tolist() == [2.0, 4.0, 6.0]

    def test_vector_names_override(self, block):
        t = Table.from_block(
            block, vector_names={"runtimes": ["rt_a", "rt_b"]}
        )
        assert t.column_names == ["app", "threads", "rt_a", "rt_b"]

    def test_vector_names_apply_to_width_one(self):
        b = filled({"runtimes": ("f8", 1)}, runtimes=[1.5])  # scalars
        t = Table.from_block(b, vector_names={"runtimes": ["runtime_0"]})
        assert t.column_names == ["runtime_0"]
        assert t.column("runtime_0").tolist() == [1.5]

    def test_wrong_vector_name_count_rejected(self, block):
        with pytest.raises(ColumnError, match="width"):
            Table.from_block(block, vector_names={"runtimes": ["only-one"]})

    def test_none_string_cells_survive(self):
        b = filled({"app": "str", "x": "f8"}, app=[None], x=[1.0])
        t = Table.from_block(b)
        assert t.column("app")[0] is None

    def test_matches_from_records(self, block):
        via_block = Table.from_block(block)
        exploded = [
            {"app": app, "threads": threads, "runtimes_0": r0,
             "runtimes_1": r1}
            for app, threads, (r0, r1) in zip(
                ["cg", "ep", "cg"], [8, 16, 32],
                [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])
        ]
        assert via_block == Table.from_records(exploded)
