"""Property-based tests (hypothesis) on core data structures and model
invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.machines import A64FX, MILAN, SKYLAKE
from repro.frame.io import table_from_csv_text, table_to_csv_text
from repro.frame.table import Table
from repro.mlkit.preprocess import LabelEncoder, Standardizer
from repro.runtime.affinity import compute_placement
from repro.runtime.executor import execute
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.program import LoadPattern
from repro.runtime.schedule import static_balance_factor
from repro.stats.wilcoxon import rankdata
from repro.workloads.generator import random_program

MACHINES = (A64FX, SKYLAKE, MILAN)


# ---------------------------------------------------------------------------
# Frame invariants
# ---------------------------------------------------------------------------
@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 20))
    names = draw(
        st.lists(
            st.text(alphabet="abcdefg_", min_size=1, max_size=6),
            min_size=1, max_size=4, unique=True,
        )
    )
    cols = {}
    for name in names:
        kind = draw(st.sampled_from(["int", "float", "str"]))
        if kind == "int":
            cols[name] = draw(
                st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)
            )
        elif kind == "float":
            cols[name] = draw(
                st.lists(
                    st.floats(-1e6, 1e6, allow_nan=False), min_size=n,
                    max_size=n,
                )
            )
        else:
            cols[name] = draw(
                st.lists(
                    st.text(alphabet="xyz", min_size=1, max_size=4),
                    min_size=n, max_size=n,
                )
            )
    return Table(cols)


@given(small_tables())
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_property(table):
    back = table_from_csv_text(table_to_csv_text(table))
    assert back.num_rows == table.num_rows
    assert back.column_names == table.column_names
    for name in table.column_names:
        a, b = table.column(name), back.column(name)
        for x, y in zip(a, b):
            if isinstance(x, float):
                assert y == pytest.approx(x)
            else:
                assert str(x) == str(y)


@given(small_tables(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_groupby_partitions_rows(table, col_pick):
    name = table.column_names[col_pick % table.num_columns]
    groups = table.group_by(name)
    total = sum(sub.num_rows for _, sub in groups)
    assert total == table.num_rows
    # Each group's key matches all its rows.
    for (key,), sub in groups:
        assert all(v == key for v in sub.column(name))


# ---------------------------------------------------------------------------
# Stats invariants
# ---------------------------------------------------------------------------
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200)
)
@settings(max_examples=60, deadline=None)
def test_rankdata_properties(values):
    ranks = rankdata(np.asarray(values))
    n = len(values)
    # Rank sum is invariant: n(n+1)/2.
    assert ranks.sum() == pytest.approx(n * (n + 1) / 2)
    assert ranks.min() >= 1.0 and ranks.max() <= n


@given(
    st.integers(1, 5000),
    st.integers(1, 128),
    st.sampled_from(list(LoadPattern)),
    st.floats(0.0, 1.5),
)
@settings(max_examples=80, deadline=None)
def test_static_balance_factor_bounds(n_iters, nthreads, pattern, imbalance):
    if pattern is LoadPattern.LINEAR and imbalance >= 2.0:
        imbalance = 1.5
    f = static_balance_factor(pattern, imbalance, n_iters, nthreads)
    assert f >= 1.0
    T = min(nthreads, n_iters)
    # No block can exceed T times the average.
    assert f <= T * (1.0 + 4 * imbalance) + 1.0


# ---------------------------------------------------------------------------
# ML invariants
# ---------------------------------------------------------------------------
@given(
    st.integers(2, 60),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_standardizer_idempotent_stats(n, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 10) + rng.uniform(-5, 5)
    Z = Standardizer().fit_transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    # Re-standardizing an already standardized matrix is a no-op.
    Z2 = Standardizer().fit_transform(Z)
    assert np.allclose(Z, Z2, atol=1e-9)


@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_label_encoder_roundtrip(values):
    enc = LabelEncoder().fit(values)
    codes = enc.transform(values)
    assert enc.inverse_transform(codes) == values
    assert codes.max() < len(enc.classes_)


# ---------------------------------------------------------------------------
# Runtime-model invariants over the whole config space
# ---------------------------------------------------------------------------
@st.composite
def env_configs(draw):
    from repro.core.envspace import SWEPT_VARIABLES

    kwargs = {}
    for var in SWEPT_VARIABLES:
        value = draw(st.sampled_from(var.values_x86))
        if var.field == "align_alloc":
            kwargs[var.field] = value
        else:
            kwargs[var.field] = value
    kwargs["num_threads"] = draw(st.sampled_from([1, 4, 24, 40, 96, 128]))
    return EnvConfig(**kwargs)


@given(env_configs(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_every_config_resolves_and_places(config, machine_idx):
    machine = MACHINES[machine_idx]
    icvs = resolve_icvs(config, machine)
    assert icvs.nthreads >= 1
    placement = compute_placement(icvs, machine)
    assert placement.nthreads == icvs.nthreads
    assert (placement.cores >= 0).all()
    assert (placement.cores < machine.n_cores).all()
    assert placement.max_oversubscription >= 1


@given(st.integers(0, 40), env_configs(), st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_execution_is_positive_finite_deterministic(seed, config, machine_idx):
    machine = MACHINES[machine_idx]
    program = random_program(seed, max_regions=3)
    a = execute(program, machine, config)
    b = execute(program, machine, config)
    assert a == b
    assert np.isfinite(a) and a > 0


@given(st.integers(0, 25), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_single_thread_never_faster_than_full_machine_would_allow(
    seed, machine_idx
):
    """Serial execution is an upper bound on... nothing in general, but
    runtime must not *increase* super-linearly when adding threads with
    default binding on a parallel-only program."""
    machine = MACHINES[machine_idx]
    program = random_program(seed, max_regions=2)
    serial = execute(program, machine, EnvConfig(num_threads=1))
    full = execute(program, machine, EnvConfig())
    # The parallel run can be slower (overheads) but not absurdly so
    # relative to serial work.
    assert full < serial * 20 + 1e-3


# ---------------------------------------------------------------------------
# Tree-model invariants
# ---------------------------------------------------------------------------
@given(
    st.integers(10, 120),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_tree_training_accuracy_beats_majority(n, p, seed):
    from repro.mlkit.tree import DecisionTreeClassifier

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = rng.integers(0, 2, size=n).astype(float)
    tree = DecisionTreeClassifier(max_depth=6, min_samples_split=2).fit(X, y)
    majority = max(y.mean(), 1 - y.mean())
    assert tree.score(X, y) >= majority - 1e-12
    proba = tree.predict_proba(X)
    assert ((proba >= 0) & (proba <= 1)).all()
    assert np.allclose(proba.sum(axis=1), 1.0)


@given(st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_loopsim_work_conservation_property(seed):
    from repro.desim.loopsim import simulate_loop

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    costs = rng.uniform(0.0, 1e-3, size=n)
    workers = int(rng.integers(1, 17))
    schedule = ["static", "dynamic", "guided"][int(rng.integers(3))]
    res = simulate_loop(costs, workers, schedule=schedule,
                        chunk=int(rng.integers(1, 8)),
                        dispatch_time=float(rng.uniform(0, 1e-6)))
    assert res.total_work == pytest.approx(costs.sum())
    # Makespan can never beat the aggregate-work bound or the largest
    # single iteration.
    assert res.makespan >= costs.sum() / workers - 1e-12
    assert res.makespan >= costs.max() - 1e-12


@given(st.integers(0, 20), st.floats(1.5, 8.0))
@settings(max_examples=20, deadline=None)
def test_runtime_scales_with_work(seed, factor):
    """Scaling every region's work scales the compute-dominated runtime
    by at most that factor (overheads do not grow)."""
    from dataclasses import replace as dc_replace

    from repro.runtime.program import LoopRegion, Program, SerialPhase

    rng = np.random.default_rng(seed)
    region = LoopRegion(
        "l",
        n_iters=int(rng.integers(100, 10_000)),
        iter_work=float(rng.uniform(1e-7, 1e-5)),
        trips=int(rng.integers(1, 5)),
    )
    base_prog = Program("p", (SerialPhase(work=1e-5), region))
    scaled_prog = Program(
        "p", (SerialPhase(work=1e-5 * factor),
              dc_replace(region, iter_work=region.iter_work * factor)),
    )
    machine = MACHINES[seed % 3]
    base = execute(base_prog, machine, EnvConfig())
    scaled = execute(scaled_prog, machine, EnvConfig())
    assert base < scaled <= base * factor * 1.0001


@given(small_tables(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_group_sizes_match_key_multiplicity(table, col_pick):
    """Each group holds exactly its key's rows, in table order."""
    name = table.column_names[col_pick % table.num_columns]
    others = [n for n in table.column_names if n != name]
    keyed = table.without_columns(others).with_column(
        "_row", list(range(len(table))))
    from collections import Counter

    # Keys match by value, as dict keys compare them: -0.0 == 0.0.
    counts = Counter(table.column(name))
    groups = keyed.group_by(name)
    assert [sub.num_rows for _, sub in groups] == list(counts.values())
    for _, sub in groups:
        rows = list(sub.column("_row"))
        assert rows == sorted(rows)


# ---------------------------------------------------------------------------
# Seeded stdlib-random property tests (no hypothesis involvement): randomly
# generated tables through CSV round-trip, filter and unique identities.
# Each failure reproduces from its printed seed alone.
# ---------------------------------------------------------------------------
import math
import random


def _random_table(rng: random.Random, *, with_nan: bool = True,
                  min_rows: int = 1) -> Table:
    """A random table with int / float(+NaN) / str columns."""
    n = rng.randint(min_rows, 25)
    cols = {}
    n_cols = rng.randint(1, 4)
    for i in range(n_cols):
        kind = rng.choice(("int", "float", "str"))
        name = f"{kind[0]}{i}"
        if kind == "int":
            cols[name] = [rng.randint(-999, 999) for _ in range(n)]
        elif kind == "float":
            cols[name] = [
                float("nan") if with_nan and rng.random() < 0.15
                else round(rng.uniform(-1e4, 1e4), rng.randint(0, 6))
                for _ in range(n)
            ]
        else:
            cols[name] = [
                "".join(rng.choices("abcxyz", k=rng.randint(1, 5)))
                for _ in range(n)
            ]
    return Table(cols)


@pytest.mark.parametrize("seed", range(25))
def test_random_csv_roundtrip_preserves_dtype_and_nan(seed):
    rng = random.Random(seed)
    table = _random_table(rng)
    back = table_from_csv_text(table_to_csv_text(table))
    assert back.column_names == table.column_names
    assert back.num_rows == table.num_rows
    for name in table.column_names:
        a, b = table.column(name), back.column(name)
        # dtype kind survives: int64 stays integer, float stays float,
        # strings stay object.
        assert a.dtype.kind == b.dtype.kind, (name, a.dtype, b.dtype)
        for x, y in zip(a, b):
            if isinstance(x, float) and math.isnan(x):
                assert isinstance(y, float) and math.isnan(y)
            elif isinstance(x, float):
                assert y == pytest.approx(x, rel=0, abs=0)  # repr round-trip
            else:
                assert x == y


@pytest.mark.parametrize("seed", range(15))
def test_random_filter_partitions_rows(seed):
    """A mask and its complement split the table without loss, and
    filtering is idempotent under mask conjunction."""
    rng = random.Random(2000 + seed)
    table = _random_table(rng, with_nan=False)
    n = table.num_rows
    mask = np.asarray([rng.random() < 0.5 for _ in range(n)])
    kept, dropped = table.filter(mask), table.filter(~mask)
    assert kept.num_rows + dropped.num_rows == n
    name = table.column_names[0]
    combined = sorted(
        [str(v) for v in kept.column(name)]
        + [str(v) for v in dropped.column(name)]
    )
    assert combined == sorted(str(v) for v in table.column(name))
    mask2 = np.asarray([rng.random() < 0.5 for _ in range(n)])
    twice = table.filter(mask).filter(mask2[mask])
    at_once = table.filter(mask & mask2)
    assert twice == at_once


def _run_heavy_objects(rng: random.Random, n: int) -> np.ndarray:
    """An object column of runs of equal neighbours, drawn from cells a
    ``!=`` between neighbours and a dict must agree on: ``"a"`` and
    ``np.str_("a")``, ``0``/``0.0``/``False``, one shared ``nan`` object,
    fresh ``nan`` objects and ``None``."""
    shared_nan = float("nan")
    pool = ["a", np.str_("a"), "b", 0, 0.0, False, 1, None, shared_nan,
            "fresh-nan"]
    cells: list = []
    while len(cells) < n:
        v = rng.choice(pool)
        for _ in range(rng.randint(1, 6)):
            cells.append(float("nan") if v == "fresh-nan" else v)
    col = np.empty(n, dtype=object)
    for i, v in enumerate(cells[:n]):
        col[i] = v
    return col


@pytest.mark.parametrize("seed", range(15))
def test_random_unique_matches_dict_loop(seed):
    """``unique`` lists each distinct cell once by first appearance, as
    a dict over the cells' ``.item()`` does (every ``nan`` on its own),
    and ``codes`` numbers each row as that dict does."""
    rng = random.Random(3000 + seed)
    table = _random_table(rng)
    table = table.with_column("runs",
                              _run_heavy_objects(rng, table.num_rows))
    for name in table.column_names:
        col = table.column(name)
        seen = {}
        want = [seen.setdefault(
                    v.item() if isinstance(v, np.generic) else v, len(seen))
                for v in col]
        got = table.unique(name)
        assert [repr(v) for v in got] == [repr(v) for v in seen]
        uniques, codes = table.codes(name)
        assert codes.tolist() == want
        for u, v in zip(uniques[codes].tolist(), col.tolist()):
            assert u == v or (u != u and v != v)

