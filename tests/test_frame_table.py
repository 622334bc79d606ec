"""Unit tests for the columnar Table."""

import numpy as np
import pytest

from repro.errors import ColumnError, LengthMismatch
from repro.frame.columns import RecordBlock
from repro.frame.ops import concat_tables
from repro.frame.table import Table


@pytest.fixture
def simple():
    return Table(
        {
            "app": ["cg", "cg", "bt", "bt", "mg"],
            "arch": ["milan", "a64fx", "milan", "milan", "a64fx"],
            "runtime": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )


class TestConstruction:
    def test_shape(self, simple):
        assert simple.shape == (5, 3)
        assert simple.num_rows == 5
        assert simple.num_columns == 3
        assert len(simple) == 5

    def test_column_names_in_order(self, simple):
        assert simple.column_names == ["app", "arch", "runtime"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            Table({"a": [1, 2], "b": [1, 2, 3]})

    def test_2d_column_rejected(self):
        with pytest.raises(LengthMismatch):
            Table({"a": np.zeros((2, 2))})

    def test_strings_become_object_dtype(self, simple):
        assert simple.column("app").dtype == object

    def test_numbers_keep_numeric_dtype(self, simple):
        assert simple.column("runtime").dtype.kind == "f"

    def test_from_records_missing_keys(self):
        t = Table.from_records([{"a": 1, "b": 2}, {"a": 3}])
        # Numeric-except-missing columns become float with nan (as the
        # docstring promises), not object columns holding None.
        assert t.column("b").dtype.kind == "f"
        assert t.column("b")[0] == 2.0
        assert np.isnan(t.column("b")[1])

    def test_from_records_missing_keys_non_numeric_stay_none(self):
        t = Table.from_records([{"a": "x", "b": "y"}, {"a": "z"}])
        assert t.column("b").dtype == object
        assert t.column("b")[1] is None

    def test_from_records_all_missing_stays_object(self):
        t = Table.from_records([{"a": 1, "b": None}, {"a": 2}])
        assert t.column("b").dtype == object

    def test_from_records_column_order_first_appearance(self):
        t = Table.from_records([{"b": 1}, {"a": 2, "b": 3}])
        assert t.column_names == ["b", "a"]

    def test_empty(self):
        t = Table.empty(["x", "y"])
        assert t.num_rows == 0
        assert t.column_names == ["x", "y"]


class TestAccess:
    def test_missing_column_raises(self, simple):
        with pytest.raises(ColumnError):
            simple.column("nope")

    def test_getitem(self, simple):
        assert simple["runtime"][0] == 1.0

    def test_contains(self, simple):
        assert "app" in simple
        assert "nope" not in simple

    def test_row_returns_python_scalars(self, simple):
        row = simple.row(0)
        assert row == {"app": "cg", "arch": "milan", "runtime": 1.0}
        assert isinstance(row["runtime"], float)

    def test_row_negative_index(self, simple):
        assert simple.row(-1)["app"] == "mg"

    def test_row_out_of_range(self, simple):
        with pytest.raises(IndexError):
            simple.row(5)

    def test_to_records_roundtrip(self, simple):
        assert Table.from_records(simple.to_records()) == simple

    def test_to_dict(self, simple):
        d = simple.to_dict()
        assert d["app"] == ["cg", "cg", "bt", "bt", "mg"]


class TestTransforms:
    def test_with_column_adds(self, simple):
        t = simple.with_column("x", [1, 2, 3, 4, 5])
        assert "x" in t
        assert "x" not in simple  # original untouched

    def test_with_column_replaces(self, simple):
        t = simple.with_column("runtime", [0.0] * 5)
        assert t["runtime"].sum() == 0.0

    def test_with_column_wrong_length(self, simple):
        with pytest.raises(LengthMismatch):
            simple.with_column("x", [1, 2])

    def test_without_columns(self, simple):
        t = simple.without_columns(["arch"])
        assert t.column_names == ["app", "runtime"]

    def test_without_missing_raises(self, simple):
        with pytest.raises(ColumnError):
            simple.without_columns(["nope"])

    def test_rename(self, simple):
        t = simple.rename({"runtime": "sec"})
        assert "sec" in t and "runtime" not in t

    def test_rename_collision_raises(self, simple):
        with pytest.raises(ColumnError):
            simple.rename({"runtime": "app"})

class TestFilterSort:
    def test_filter(self, simple):
        t = simple.filter(simple["runtime"] > 2.5)
        assert t.num_rows == 3

    def test_filter_wrong_length(self, simple):
        with pytest.raises(LengthMismatch):
            simple.filter([True, False])

    def test_take_order(self, simple):
        t = simple.take([4, 0])
        assert list(t["app"]) == ["mg", "cg"]

    def test_unique_preserves_first_appearance(self, simple):
        assert simple.unique("app") == ["cg", "bt", "mg"]


class TestGroupAggregate:
    def test_group_by_single(self, simple):
        groups = dict(simple.group_by("arch"))
        assert set(groups) == {("milan",), ("a64fx",)}
        assert groups[("milan",)].num_rows == 3

    def test_group_by_multi(self, simple):
        groups = simple.group_by(["app", "arch"])
        assert len(groups) == 4

    def test_aggregate_mean(self, simple):
        t = simple.aggregate("arch", {"runtime": "mean"})
        by = dict(zip(t["arch"], t["runtime_mean"]))
        assert by["milan"] == pytest.approx((1 + 3 + 4) / 3)

    def test_aggregate_callable(self, simple):
        t = simple.aggregate("arch", {"runtime": lambda a: float(a.max())})
        by = dict(zip(t["arch"], t["runtime"]))
        assert by["a64fx"] == 5.0

class TestRendering:
    def test_to_text_contains_headers_and_rows(self, simple):
        text = simple.to_text()
        assert "app" in text and "cg" in text

    def test_to_text_truncates(self, simple):
        text = simple.to_text(max_rows=2)
        assert "3 more rows" in text

    def test_repr(self, simple):
        assert "5 rows" in repr(simple)

    def test_equality(self, simple):
        assert simple == Table(simple.to_dict())
        assert simple != simple.take([0, 1])


class TestMissingKeyCSVRoundTrip:
    """from_records' nan-filled float columns survive CSV serialization."""

    def test_roundtrip_preserves_float_dtype_and_nan(self, tmp_path):
        from repro.frame.io import read_csv, write_csv

        t = Table.from_records(
            [{"app": "cg", "runtime": 1.5, "extra": 2},
             {"app": "bt", "runtime": 2.5}]
        )
        assert t.column("extra").dtype.kind == "f"
        path = tmp_path / "t.csv"
        write_csv(t, path)
        back = read_csv(path)
        assert back.column("extra").dtype.kind == "f"
        assert back.column("extra")[0] == 2.0
        assert np.isnan(back.column("extra")[1])
        assert back == t


class TestCodes:
    """``Table.codes``: one factorization per column and table, with
    ``LabelEncoder``'s key equality."""

    @staticmethod
    def _object(values):
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            arr[i] = v
        return arr

    @pytest.mark.parametrize("values", [
        [3, 1, 3, 2, 1],
        [True, False, True],
        [0.5, -0.0, 0.0, 0.5, 2.0],
        ["b", "a", "b", "c"],
        ["0", 0, np.int64(0), True, 1, "x", 2.5, np.float64(2.5)],
        [None, "a", None],
        [],
    ], ids=["int", "bool", "float-signed-zero", "str", "mixed-object",
            "none", "empty"])
    def test_codes_equal_label_encoder(self, values):
        from repro.mlkit.preprocess import LabelEncoder

        if any(not isinstance(v, (int, float)) for v in values):
            values = self._object(values)
        t = Table({"k": values})
        uniques, codes = t.codes("k")
        enc = LabelEncoder().fit(list(t.column("k")))
        assert codes.dtype == np.int64
        assert codes.tolist() == enc.transform(list(t.column("k"))).tolist()
        assert [v.item() if isinstance(v, np.generic) else v
                for v in uniques] == enc.classes_

    def test_shared_nan_object_is_one_key(self):
        nan = float("nan")
        t = Table({"k": self._object(["a", nan, nan, "a"])})
        assert t.codes("k")[1].tolist() == [0, 1, 1, 0]

    @staticmethod
    def _codes_by_dict(column):
        """The per-cell dict loop the run-length factorizer stands in
        for: one lookup per cell, keyed by the cell's ``.item()``."""
        index = {}
        return [index.setdefault(
                    v.item() if isinstance(v, np.generic) else v, len(index))
                for v in column]

    nan = float("nan")

    @pytest.mark.parametrize("values, expected", [
        (["x"] * 50 + ["y"] * 30 + [None] * 5 + ["x"] * 20,
         [0] * 50 + [1] * 30 + [2] * 5 + [0] * 20),
        (["a", np.str_("a"), "a", "b", np.str_("b"), "a"],
         [0, 0, 0, 1, 1, 0]),
        ([0, 0.0, False, np.int64(0), 1, True, 1.0, 0],
         [0, 0, 0, 0, 1, 1, 1, 0]),
        ([nan, nan, nan, "a", nan], [0, 0, 0, 1, 0]),
        ([float("nan"), float("nan"), "a", float("nan")], [0, 1, 2, 3]),
    ], ids=["runs", "str-and-np-str", "zero-false-one-true", "shared-nan",
            "distinct-nans"])
    def test_runs_match_dict_loop(self, values, expected):
        t = Table({"k": self._object(values)})
        assert t.column("k").dtype == object
        codes = t.codes("k")[1]
        assert codes.tolist() == self._codes_by_dict(t.column("k"))
        assert codes.tolist() == expected

    def test_nan_float_runs_match_dict_loop(self):
        col = np.array([1.0, 1.0, np.nan, np.nan, 1.0, -0.0, 0.0, np.nan])
        codes = Table({"k": col}).codes("k")[1]
        assert codes.tolist() == self._codes_by_dict(col)
        assert codes.tolist() == [0, 0, 1, 2, 0, 3, 3, 4]

    def test_group_codes(self):
        t = Table({"a": ["x", "x", "y", "x"], "b": [1, 2, 1, 1]})
        assert t.group_codes(["a", "b"]).tolist() == [0, 1, 2, 0]
        assert t.group_codes(["b"]).tolist() == [0, 1, 0, 0]
        assert t.group_codes([]).tolist() == [0, 0, 0, 0]
        assert t._codes.keys() == {"a", "b"}

    def test_cached_and_read_only(self):
        t = Table({"k": ["b", "a", "b"], "v": [1, 2, 3]})
        first = t.codes("k")
        assert t.codes("k") is first
        for arr in first:
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        with pytest.raises(ColumnError):
            t.codes("missing")

    def test_derived_tables_never_reuse_parent_codes(self):
        t = Table({"k": ["b", "a", "b", "c"], "v": [1, 2, 3, 4]})
        t.codes("k")
        t.codes("v")
        derived = {
            "take": t.take([3, 1]),
            "filter": t.filter(np.array([False, True, True, True])),
            "take_all": t.take([0, 1, 2, 3]),
            "with_column": t.with_column("k", ["z", "z", "y", "y"]),
            "with_other_column": t.with_column("w", [0, 0, 0, 0]),
            "without_columns": t.without_columns(["v"]),
            "rename": t.rename({"k": "v", "v": "k"}),
            "group_by": t.group_by("k")[0][1],
        }
        for name, d in derived.items():
            assert d._codes == {}, name
            uniques, codes = d.codes("k")
            col = d.column("k")
            assert list(uniques) == d.unique("k"), name
            assert [uniques[c] for c in codes] == list(col), name
            assert d._codes.keys() == {"k"}, name
        assert t._codes.keys() == {"k", "v"}
        assert t.codes("k")[1].tolist() == [0, 1, 0, 2]


def unique_by_dict(column):
    """The dict loop ``Table.unique`` ran before it read ``codes``: the
    oracle for first appearance, ``.item()`` key equality and each
    ``nan`` cell listed on its own."""
    seen = {}
    for v in column:
        if isinstance(v, np.generic):
            v = v.item()
        seen.setdefault(v, None)
    return list(seen)


def same_values(got, want):
    """Element-wise identical: type, value, the sign of a zero, and
    ``nan`` in the same places."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w), (g, w)
        if isinstance(w, float) and w != w:
            assert g != g
        else:
            assert g == w and repr(g) == repr(w), (g, w)


class TestUnique:
    """``Table.unique`` is ``codes``' uniques, equal to the dict loop."""

    nan = float("nan")

    @pytest.mark.parametrize("values, expected", [
        (TestCodes._object(["0", 0, np.int64(0), True, 0.0]),
         ["0", 0, True]),
        ([1.0, nan, -0.0, 0.0, nan, 1.0], [1.0, nan, -0.0, nan]),
        ([0.5, -0.0, 0.0, 0.5, 2.0], [0.5, -0.0, 2.0]),
        ([3, 1, 3, 2, 1], [3, 1, 2]),
        ([True, False, True], [True, False]),
        (np.empty(0, dtype=object), []),
        (np.empty(0, dtype=float), []),
    ], ids=["mixed-object", "float-nan-signed-zero", "float-signed-zero",
            "int", "bool", "empty-object", "empty-float"])
    def test_matches_dict_loop(self, values, expected):
        t = Table({"k": values})
        same_values(t.unique("k"), unique_by_dict(t.column("k")))
        same_values(t.unique("k"), expected)

    def test_unicode_column(self):
        # Table() turns a ``U`` array into ``object``; a ``U`` column only
        # arrives through the derived-table path, and takes np.unique.
        t = Table._derived({"k": np.array(["b", "a", "b", "c"])}, 4)
        assert t.column("k").dtype.kind == "U"
        same_values(t.unique("k"), unique_by_dict(t.column("k")))
        same_values(t.unique("k"), ["b", "a", "c"])

    def test_reads_the_codes_cache(self):
        t = Table({"k": ["b", "a", "b"]})
        assert t.unique("k") == ["b", "a"]
        assert t._codes.keys() == {"k"}
        with pytest.raises(ColumnError):
            t.unique("missing")


class TestVectorizedParity:
    """The vectorized ``group_by`` agrees with the hash-based python
    reference, ``nan`` and mixed-object keys included."""

    def test_group_by_matches_python(self, simple):
        fast = simple.group_by(["app", "arch"])
        ref = simple._group_by_python(["app", "arch"])
        assert [k for k, _ in fast] == [k for k, _ in ref]
        for (_, a), (_, b) in zip(fast, ref):
            assert a.to_records() == b.to_records()

    def test_group_keys_are_python_scalars(self, simple):
        for key, _ in simple.group_by(["app", "runtime"]):
            assert type(key[0]) is str and type(key[1]) is float

    def test_nan_keys_fall_back_to_python(self):
        t = Table({"k": [1.0, float("nan"), 1.0], "v": [1, 2, 3]})
        groups = t.group_by("k")
        assert [list(s["v"]) for _, s in groups] == [[1, 3], [2]]

    @pytest.mark.parametrize("keys", [["app"], ["app", "arch"],
                                      ["arch", "runtime"]])
    def test_group_indices_match_group_by(self, simple, keys):
        indices = simple.group_indices(keys)
        groups = simple.group_by(keys)
        ref = simple._group_by_python(keys)
        assert [k for k, _ in indices] == [k for k, _ in groups] \
            == [k for k, _ in ref]
        for (_, idx), (_, sub), (_, r) in zip(indices, groups, ref):
            assert list(idx) == sorted(idx)  # rows keep table order
            assert simple.take(idx).to_records() == sub.to_records() \
                == r.to_records()

    def test_group_indices_nan_key_takes_the_fallback(self):
        nan = float("nan")
        t = Table({"k": [1.0, nan, 1.0, 2.0, nan], "v": [1, 2, 3, 4, 5]})
        assert t.codes("k")[0].dtype == object  # the dict path's uniques
        # the dict path: each nan cell is its own key, as in the python path
        assert list(t.codes("k")[1]) == [0, 1, 0, 2, 3]

        def rows(groups):
            return [(repr(k), [int(i) for i in idx]) for k, idx in groups]

        indices = rows(t.group_indices("k"))
        python = rows(t._group_indices_python([t.column("k")]))
        assert indices == python
        assert indices[0] == ("(1.0,)", [0, 2])
        assert [list(s["v"]) for _, s in t.group_by("k")] \
            == [[t.column("v")[i] for i in idx] for _, idx in indices]
        assert [list(s["v"]) for _, s in t._group_by_python(["k"])] \
            == [list(s["v"]) for _, s in t.group_by("k")]

    def test_high_cardinality_keys_stay_within_int64(self):
        """Six key columns of ~3,000 distinct values each mix to more
        than 2**62 codes; the composite is re-factorized on the way
        instead of wrapping, so groups match the python path."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 10**6, size=(3000, 6))
        keys = np.concatenate([keys, keys[:100]])
        t = Table({f"k{j}": keys[:, j] for j in range(6)})
        names = [f"k{j}" for j in range(6)]
        assert np.prod([float(t.codes(n)[0].shape[0]) for n in names]) \
            > 2.0**62
        fast = t.group_indices(names)
        python = t._group_indices_python([t.column(n) for n in names])
        assert len(fast) == 3000
        assert [(k, idx.tolist()) for k, idx in fast] \
            == [(k, idx.tolist()) for k, idx in python]

    def test_composite_codes_count_every_column_toward_overflow(self):
        """Two columns of 2**40 values: mixing the raw codes would wrap
        2**24 * 2**40 to 0 and merge two distinct rows."""
        from repro.frame.table import _composite_codes

        big = np.broadcast_to(np.int8(0), (2**40,))
        codes = _composite_codes([(big, np.array([0, 2**24])),
                                  (big, np.array([0, 0]))])
        assert codes.tolist() == [0, 1]

    def test_group_indices_of_an_empty_table(self):
        assert Table.empty(["k"]).group_indices("k") == []

    def test_mixed_object_keys_fall_back(self):
        k = np.empty(3, dtype=object)
        k[:] = ["a", 1, "a"]
        t = Table({"k": k, "v": [1, 2, 3]})
        assert [list(s["v"]) for _, s in t.group_by("k")] == [[1, 3], [2]]


RECORDS_BOTH_PATHS = [
    {"app": "cg", "arch": "milan", "runtime": 1.0},
    {"app": "cg", "arch": "a64fx", "runtime": 2.0},
    {"app": "bt", "arch": "milan", "runtime": 3.0},
    {"app": "bt", "arch": "milan", "runtime": 4.0},
]
SCHEMA_BOTH_PATHS = {"app": "str", "arch": "str", "runtime": "f8"}


def block_of(records, schema):
    """A :class:`RecordBlock` of ``schema`` holding ``records``' cells,
    packed column at a time."""
    block = RecordBlock(schema)
    for name, col in block.columns.items():
        col.extend_cells(r[name] for r in records)
    return block


@pytest.fixture(params=["records", "block"])
def build(request):
    """Build one logical table via the dict path or the block path."""

    def _build(records, schema):
        if request.param == "records":
            return Table.from_records(records)
        return Table.from_block(block_of(records, schema))

    return _build


class TestEdgeCasesBothPaths:
    """The frame edge cases hold identically for dict-built and
    block-built tables."""

    def test_multi_key_group_order_is_first_appearance(self, build):
        t = build(RECORDS_BOTH_PATHS, SCHEMA_BOTH_PATHS)
        keys = [k for k, _ in t.group_by(["app", "arch"])]
        assert keys == [("cg", "milan"), ("cg", "a64fx"), ("bt", "milan")]

    def test_concat_with_empty(self, build):
        t = build(RECORDS_BOTH_PATHS, SCHEMA_BOTH_PATHS)
        empty = t.take([])
        out = concat_tables([empty, t, empty])
        assert out.to_records() == t.to_records()
        assert concat_tables([]).num_rows == 0

    def test_disjoint_key_sets_match_explicit_none_block(self):
        """from_records fills disjoint keys with None/nan; a block built
        with explicit nulls must produce the same table."""
        via_records = Table.from_records(
            [{"a": "x", "b": 1.0}, {"a": "y", "c": "z"}]
        )
        assert via_records.column("b").dtype.kind == "f"  # nan-filled
        via_block = Table.from_block(block_of(
            [{"a": "x", "b": 1.0, "c": None},
             {"a": "y", "b": float("nan"), "c": "z"}],
            {"a": "str", "b": "f8", "c": "str"},
        ))
        assert via_records.column_names == via_block.column_names
        assert via_records == via_block
