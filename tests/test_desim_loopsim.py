"""Tests for the per-chunk loop simulator, including cross-validation of
the analytic schedule model against it."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.desim.loopsim import simulate_loop
from repro.errors import SimulationError
from repro.runtime.schedule import static_balance_factor
from repro.runtime.program import LoadPattern


class TestBasics:
    def test_static_uniform_perfect_balance(self):
        costs = np.full(100, 0.01)
        res = simulate_loop(costs, n_workers=10, schedule="static")
        assert res.makespan == pytest.approx(0.1)
        assert res.imbalance == pytest.approx(1.0)
        assert res.n_chunks == 10
        assert res.dispatch_wait == 0.0

    def test_work_conserved(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(0.001, 0.01, size=200)
        for schedule in ("static", "dynamic", "guided"):
            res = simulate_loop(costs, 8, schedule=schedule)
            assert res.total_work == pytest.approx(costs.sum())

    def test_single_worker_serial(self):
        costs = np.full(50, 0.02)
        for schedule in ("static", "dynamic", "guided"):
            res = simulate_loop(costs, 1, schedule=schedule)
            assert res.makespan == pytest.approx(1.0)

    def test_dynamic_chunk_count(self):
        costs = np.full(100, 0.001)
        res = simulate_loop(costs, 4, schedule="dynamic", chunk=10)
        assert res.n_chunks == 10

    def test_guided_fewer_chunks_than_dynamic(self):
        costs = np.full(1000, 1e-4)
        dyn = simulate_loop(costs, 8, schedule="dynamic", chunk=1)
        gui = simulate_loop(costs, 8, schedule="guided", chunk=1)
        assert gui.n_chunks < dyn.n_chunks

    def test_more_iterations_than_nothing(self):
        with pytest.raises(SimulationError):
            simulate_loop(np.array([]), 4)
        with pytest.raises(SimulationError):
            simulate_loop(np.ones(4), 0)
        with pytest.raises(SimulationError):
            simulate_loop(np.ones(4), 2, schedule="chaotic")
        with pytest.raises(SimulationError):
            simulate_loop(np.ones(4), 2, chunk=0)
        with pytest.raises(SimulationError):
            simulate_loop(-np.ones(4), 2)

    def test_slow_worker_hurts_static_more(self):
        costs = np.full(400, 1e-3)
        speeds = np.array([1.0, 1.0, 1.0, 0.25])
        st = simulate_loop(costs, 4, schedule="static",
                           worker_speeds=speeds)
        dy = simulate_loop(costs, 4, schedule="dynamic", chunk=4,
                           worker_speeds=speeds)
        assert st.makespan > 1.5 * dy.makespan


class TestDispatchContention:
    def test_dispatch_serializes_tiny_iterations(self):
        # Iterations far cheaper than the dispatch: the counter dominates.
        costs = np.full(2000, 1e-7)
        res = simulate_loop(costs, 16, schedule="dynamic", chunk=1,
                            dispatch_time=1e-5)
        assert res.makespan >= 2000 * 1e-5  # serial dispatch floor
        assert res.dispatch_wait > 0

    def test_chunking_relieves_contention(self):
        costs = np.full(2000, 1e-7)
        fine = simulate_loop(costs, 16, "dynamic", chunk=1,
                             dispatch_time=1e-5)
        coarse = simulate_loop(costs, 16, "dynamic", chunk=100,
                               dispatch_time=1e-5)
        assert coarse.makespan < fine.makespan / 5

    def test_no_dispatch_cost_no_wait(self):
        costs = np.full(100, 1e-3)
        res = simulate_loop(costs, 4, "dynamic", chunk=1, dispatch_time=0.0)
        assert res.dispatch_wait == pytest.approx(0.0)


class TestAnalyticValidation:
    """The schedule model's closed forms vs the per-chunk DES."""

    def test_static_balance_factor_tracks_des(self):
        rng = np.random.default_rng(1)
        n, T, sigma = 4000, 16, 0.7
        ratios = []
        for trial in range(10):
            costs = np.maximum(
                rng.normal(1e-4, sigma * 1e-4, size=n), 0.0
            )
            res = simulate_loop(costs, T, schedule="static")
            ideal = costs.sum() / T
            ratios.append(res.makespan / ideal)
        des_balance = float(np.mean(ratios))
        model = static_balance_factor(LoadPattern.RANDOM, sigma, n, T)
        assert model == pytest.approx(des_balance, rel=0.1)

    def test_dynamic_beats_static_on_linear_ramp_in_both_models(self):
        n, T = 2000, 8
        costs = 1e-4 * (1.0 + 1.0 * (np.arange(n) / n - 0.5))
        st = simulate_loop(costs, T, schedule="static")
        dy = simulate_loop(costs, T, schedule="dynamic", chunk=8,
                           dispatch_time=1e-8)
        assert dy.makespan < st.makespan
        # The analytic model agrees on the direction.
        st_model = static_balance_factor(LoadPattern.LINEAR, 1.0, n, T)
        assert st_model > 1.2

    def test_dispatch_bound_regime_matches_contention_floor(self):
        """The analytic model's `contention_floor = n_chunks * serial_grab`
        must match the DES when iterations are negligible."""
        n, T = 1000, 12
        dispatch = 2e-6
        costs = np.full(n, 1e-9)
        res = simulate_loop(costs, T, "dynamic", chunk=1,
                            dispatch_time=dispatch)
        floor = n * dispatch
        assert res.makespan == pytest.approx(floor, rel=0.05)

    def test_guided_balances_ramp_like_model_predicts(self):
        n, T = 3000, 10
        costs = 1e-4 * (1.0 + 0.8 * (np.arange(n) / n - 0.5))
        gui = simulate_loop(costs, T, schedule="guided", dispatch_time=1e-8)
        ideal = costs.sum() / T
        assert gui.makespan / ideal < 1.15  # guided smooths the ramp


# ----------------------------------------------------------------------
# Pinned trajectories
# ----------------------------------------------------------------------
def _costs(kind, n, seed=0):
    if kind == "uniform":
        return np.random.default_rng(seed).uniform(0.5, 1.5, n)
    if kind == "tied":
        return np.full(n, 1e-3)
    if kind == "tiny":
        return np.full(n, 1e-7)
    if kind == "negligible":
        return np.full(n, 1e-9)
    if kind == "ramp":
        return 1e-4 * (1.0 + 1.0 * (np.arange(n) / n - 0.5))
    if kind == "normal":
        rng = np.random.default_rng(seed)
        return np.maximum(rng.normal(1e-4, 0.7e-4, size=n), 0.0)
    if kind == "zeros":
        costs = np.random.default_rng(seed).uniform(0.0, 2e-3, n)
        costs[::3] = 0.0
        return costs
    if kind == "allzero":
        return np.zeros(n)
    raise ValueError(kind)


_SKYLAKE_GRAB = 8.100000000000001e-08
_SLOW4 = (1.0, 1.0, 1.0, 0.25)
_UNEVEN7 = (1.0, 0.5, 0.75, 1.25, 0.3, 1.0, 2.0)

#: id -> (cost kind, n, cost seed, T, schedule, chunk, dispatch, speeds)
_CASES = {
    # check_loop_iteration_coverage
    "cov-static-1": ("uniform", 257, 0, 1, "static", 1, 1e-3, None),
    "cov-static-7": ("uniform", 257, 0, 7, "static", 1, 1e-3, None),
    "cov-static-8-c3": ("uniform", 257, 0, 8, "static", 3, 1e-3, None),
    "cov-dynamic-4": ("uniform", 257, 0, 4, "dynamic", 1, 1e-3, None),
    "cov-dynamic-7-c5": ("uniform", 257, 0, 7, "dynamic", 5, 1e-3, None),
    "cov-dynamic-16-c32": ("uniform", 257, 0, 16, "dynamic", 32, 1e-3, None),
    "cov-guided-4": ("uniform", 257, 0, 4, "guided", 1, 1e-3, None),
    "cov-guided-8-c2": ("uniform", 257, 0, 8, "guided", 2, 1e-3, None),
    # the loop scenarios of the retired schedule-perturbation fuzzer
    "spec-static": ("uniform", 37, 0, 5, "static", 1, 0.0, None),
    "spec-dynamic": ("uniform", 40, 0, 4, "dynamic", 1, 0.0, None),
    "spec-dynamic-chunked": ("uniform", 61, 2, 7, "dynamic", 3, 1e-3, None),
    "spec-guided": ("uniform", 96, 3, 8, "guided", 2, 0.0, None),
    # tests/test_model_validation.py: Skylake's 40-thread grab cost
    "mv-dynamic-1": ("tied", 2000, 0, 40, "dynamic", 1, _SKYLAKE_GRAB, None),
    "mv-dynamic-64": ("tied", 2000, 0, 40, "dynamic", 64, _SKYLAKE_GRAB, None),
    "mv-dynamic-1000": ("tiny", 5000, 0, 40, "dynamic", 1000, _SKYLAKE_GRAB,
                        None),
    "mv-guided-1": ("ramp", 2000, 0, 40, "guided", 1, _SKYLAKE_GRAB, None),
    "mv-static-40": ("normal", 2000, 1, 40, "static", 1, 0.0, None),
    "mv-random-dynamic": ("normal", 1000, 2, 40, "dynamic", 1, _SKYLAKE_GRAB,
                          None),
    # tests/test_desim_loopsim.py
    "ls-serialized-1": ("tiny", 500, 0, 16, "dynamic", 1, 1e-5, None),
    "ls-serialized-100": ("tiny", 2000, 0, 16, "dynamic", 100, 1e-5, None),
    "ls-floor": ("negligible", 300, 0, 12, "dynamic", 1, 2e-6, None),
    "ls-ramp-dynamic-8": ("ramp", 2000, 0, 8, "dynamic", 8, 1e-8, None),
    "ls-ramp-guided": ("ramp", 3000, 0, 10, "guided", 1, 1e-8, None),
    "ls-no-dispatch": ("tied", 100, 0, 4, "dynamic", 1, 0.0, None),
    "ls-slow-static": ("tied", 400, 0, 4, "static", 1, 0.0, _SLOW4),
    "ls-slow-dynamic-4": ("tied", 400, 0, 4, "dynamic", 4, 0.0, _SLOW4),
    # uneven speeds with a charged grab
    "speeds-dynamic": ("uniform", 150, 5, 7, "dynamic", 2, 0.05, _UNEVEN7),
    "speeds-guided": ("ramp", 300, 0, 7, "guided", 3, 1e-5, _UNEVEN7),
    "speeds-slow-grab": ("tied", 64, 0, 4, "dynamic", 1, 5e-4, _SLOW4),
    # all-equal costs: every arrival ties with another
    "ties-dynamic": ("tied", 97, 0, 8, "dynamic", 1, 0.0, None),
    "ties-dynamic-grab": ("tied", 97, 0, 8, "dynamic", 3, 1e-3, None),
    "ties-guided-grab": ("tied", 200, 0, 6, "guided", 1, 0.5, None),
    # zero-cost iterations
    "zeros-dynamic": ("zeros", 120, 4, 5, "dynamic", 2, 0.0, None),
    "zeros-dynamic-grab": ("zeros", 120, 4, 5, "dynamic", 1, 1e-3, None),
    "zeros-guided-grab": ("zeros", 120, 4, 5, "guided", 4, 1e-8, None),
    "allzero-dynamic": ("allzero", 30, 0, 4, "dynamic", 1, 0.0, None),
    "allzero-dynamic-grab": ("allzero", 30, 0, 4, "dynamic", 2, 1e-3, None),
    "allzero-static": ("allzero", 30, 0, 4, "static", 1, 0.0, None),
    # fewer iterations than workers
    "short-static": ("uniform", 3, 0, 8, "static", 1, 0.0, None),
    "short-dynamic": ("uniform", 3, 0, 8, "dynamic", 2, 1e-3, None),
}


def _digest(parts):
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _run_case(case):
    kind, n, seed, T, schedule, chunk, dispatch, speeds = _CASES[case]
    stream = []

    def on_chunk(w, lo, hi, start, duration):
        stream.append(f"{w},{lo},{hi},{float(start).hex()},"
                      f"{float(duration).hex()}")

    res = simulate_loop(
        _costs(kind, n, seed), T, schedule=schedule, chunk=chunk,
        dispatch_time=dispatch,
        worker_speeds=None if speeds is None else np.array(speeds),
        on_chunk=on_chunk,
    )
    return (
        float(res.makespan).hex(), float(res.dispatch_wait).hex(),
        res.n_chunks, _digest(float(b).hex() for b in res.busy),
        _digest(stream),
    )


#: (case, makespan, dispatch_wait, n_chunks, busy digest, on_chunk digest),
#: recorded from the simulator that ran each worker as a generator process
#: on an event engine with a FIFO lock.  The digests are sha256 over the
#: ``float.hex`` of every busy entry and of every ``on_chunk`` call's
#: ``(worker, lo, hi, start, duration)``, in call order.
_PINNED = [
    ("cov-static-1", "0x1.0aaab2e3d3705p+8", "0x0.0p+0",
     1, "442ebb4fa0a88de7", "3211db5982454080"),
    ("cov-static-7", "0x1.51a460d9886bap+5", "0x0.0p+0",
     7, "8cebfe545ce6ca71", "76e5dd15c08cc217"),
    ("cov-static-8-c3", "0x1.2204af37cd934p+5", "0x0.0p+0",
     8, "f2ff94bf4f625be0", "04afe30a69f986f9"),
    ("cov-dynamic-4", "0x1.0e9fc63b83e8ep+6", "0x1.913d6f71ffefap-8",
     257, "37339b85a97acabd", "f45fb9084e782dbe"),
    ("cov-dynamic-7-c5", "0x1.4673cba19656ap+5", "0x1.5810624dd2f1ap-6",
     52, "8e98d80934359dbf", "e2c3682e22021750"),
    ("cov-dynamic-16-c32", "0x1.233feffb4b5b2p+5", "0x1.eb851eb851ebcp-4",
     9, "031aea7138a8cdcc", "558dbb680c506559"),
    ("cov-guided-4", "0x1.0e90f2f7bdb26p+6", "0x1.89374bc6a7efap-8",
     31, "03e9c99d08e72b98", "131ab31eb7cc2193"),
    ("cov-guided-8-c2", "0x1.13a1f7453709ep+5", "0x1.cac083126e978p-6",
     45, "a51161125d530e17", "18b41f2eebcd9c80"),
    ("spec-static", "0x1.0ebac45da48f6p+3", "0x0.0p+0",
     5, "55d30284ba9bc05c", "6f4352aa558d93f3"),
    ("spec-dynamic", "0x1.5a0ed4003d190p+3", "0x0.0p+0",
     40, "3c5e4b768c37e286", "b395d581cc1c6535"),
    ("spec-dynamic-chunked", "0x1.3aaedce994900p+3", "0x1.5810624dd2f1ap-6",
     21, "9252e317b1cba49d", "f9cb265abb30231a"),
    ("spec-guided", "0x1.9c9320a37db7cp+3", "0x0.0p+0",
     31, "aab0a6f6293c3f7d", "9222832c9349aa42"),
    ("mv-dynamic-1", "0x1.99a8e36392080p-5", "0x1.08ff0229330a7p-14",
     2000, "5dbac0b9bc7fe8b1", "c59231bc278a8e5c"),
    ("mv-dynamic-64", "0x1.062794f7fcda1p-4", "0x1.08ff0230d5d27p-14",
     32, "fa231b52a0ecd90c", "7afb3a1458a5d3d7"),
    ("mv-dynamic-1000", "0x1.a578055b6fd9cp-14", "0x1.08ff022925302p-14",
     5, "729e650a9d72d914", "624593af4ebde4b0"),
    ("mv-guided-1", "0x1.4c8f9d0de4bdbp-8", "0x1.094f8a00f53e7p-14",
     304, "864ce5354261a580", "bbdcdf7171934ccc"),
    ("mv-static-40", "0x1.8fc465f8f9d40p-8", "0x0.0p+0",
     40, "f9fe1a07605ae903", "e726fdcbacae35eb"),
    ("mv-random-dynamic", "0x1.625ec75299870p-9", "0x1.29d176cabb69cp-14",
     1000, "15913d0759e979cd", "a64a769629998695"),
    ("ls-serialized-1", "0x1.522a6f3f52f92p-8", "0x1.37e90ff972462p-4",
     500, "e571fc345e979006", "c9de87535683c988"),
    ("ls-serialized-100", "0x1.797cc39ffd614p-12", "0x1.0624dd2f1a9fap-8",
     20, "472bf4833b42b604", "d163d3cf2a674786"),
    ("ls-floor", "0x1.4727dcbddb998p-11", "0x1.b92b2f58b322ap-8",
     300, "dd5758907c781df2", "c1c830ea8756f800"),
    ("ls-ramp-dynamic-8", "0x1.a42b83667c60ap-6", "0x1.2ca5d05ea7ab2p-22",
     250, "49d1dff3c9f4a440", "10e858217249352d"),
    ("ls-ramp-guided", "0x1.ec5cb1787a2b6p-6", "0x1.e32f0ee144530p-22",
     109, "f1f0854e65e8cec6", "223f97a173c0bcfa"),
    ("ls-no-dispatch", "0x1.99999999999a0p-6", "0x0.0p+0",
     100, "42b087c62eb1e8f1", "22f0105d01c8fa41"),
    ("ls-slow-static", "0x1.99999999999a0p-2", "0x0.0p+0",
     4, "7dd7ff5f2ed56b23", "d43fdede23cb7fb4"),
    ("ls-slow-dynamic-4", "0x1.0624dd2f1a9ffp-3", "0x0.0p+0",
     100, "c8bf3160ecf7bfba", "d69113e6cb96a661"),
    ("speeds-dynamic", "0x1.e5db4feffef91p+4", "0x1.cd3e412466583p+0",
     75, "ca90e187034de0bb", "cd810edb9e6a53b9"),
    ("speeds-guided", "0x1.409fbbaaf4c44p-8", "0x1.4fe4d30c3a570p-12",
     39, "60cb5b3943be6385", "aba80f9915c54c6e"),
    ("speeds-slow-grab", "0x1.78d4fdf3b645fp-5", "0x1.810624dd2f1afp-5",
     64, "fca4fbb2bbc7edb2", "75e18b8217a6e65e"),
    ("ties-dynamic", "0x1.a9fbe76c8b43cp-7", "0x0.0p+0",
     97, "82c347425fa3e04a", "0f3b53cac3e73c33"),
    ("ties-dynamic-grab", "0x1.4fdf3b645a1cfp-5", "0x1.4bc6a7ef9db27p-3",
     33, "80249b4cb2422c8f", "bffcd18a0b322012"),
    ("ties-guided-grab", "0x1.7000000000000p+4", "0x1.ad33333333331p+6",
     40, "472f12344993ea8b", "69bbab0212f2c3fe"),
    ("zeros-dynamic", "0x1.37ae11f1fcbddp-6", "0x0.0p+0",
     60, "2f963eaef2565446", "147ac4fd5a087839"),
    ("zeros-dynamic-grab", "0x1.0000000000003p-3", "0x1.9bc670480e285p-2",
     120, "d07c395f419745a4", "2cad86583ae86f94"),
    ("zeros-guided-grab", "0x1.3b47d5afe5fbap-6", "0x1.ad7f29abcaf49p-24",
     20, "76bde33b77ab1935", "4b6f5707e4e148c5"),
    ("allzero-dynamic", "0x0.0p+0", "0x0.0p+0",
     30, "f49bf1eddcfee0a5", "134cabdee3403357"),
    ("allzero-dynamic-grab", "0x1.374bc6a7ef9dep-6", "0x1.a1cac083126edp-5",
     15, "f49bf1eddcfee0a5", "f86c2c128454e57c"),
    ("allzero-static", "0x0.0p+0", "0x0.0p+0",
     4, "f49bf1eddcfee0a5", "bba1a2c92be984c5"),
    ("short-static", "0x1.230febcfd9c28p+0", "0x0.0p+0",
     3, "7afa3d747e4fc686", "6a7aca4c50d93e48"),
    ("short-dynamic", "0x1.e8a3bc36f4299p+0", "0x1.cac083126e978p-6",
     2, "448223c19cbdd597", "78d18c0a4c797ee6"),
]


class TestPinnedTrajectories:
    """Exact makespans, dispatch waits, busy times and chunk streams,
    pinned so a change to the simulator's mechanics cannot move a
    trajectory."""

    @pytest.mark.parametrize(
        "case, makespan, dispatch_wait, n_chunks, busy, stream", _PINNED,
        ids=[p[0] for p in _PINNED],
    )
    def test_trajectory(self, case, makespan, dispatch_wait, n_chunks,
                        busy, stream):
        assert _run_case(case) == (
            makespan, dispatch_wait, n_chunks, busy, stream
        )

    def test_every_case_is_pinned(self):
        assert [p[0] for p in _PINNED] == list(_CASES)


class TestLazyImport:
    def test_sweep_import_leaves_the_loop_des_unloaded(self):
        """No sweep runs the loop DES, so importing the sweep engine
        must not import it; the package still resolves its names."""
        snippet = (
            "import sys\n"
            "import repro.core.sweep\n"
            "print('repro.desim.loopsim' in sys.modules)\n"
            "from repro.desim import LoopSimResult, simulate_loop\n"
            "from repro.desim.loopsim import simulate_loop as direct\n"
            "print(simulate_loop is direct, LoopSimResult.__name__)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.split() == ["False", "True", "LoopSimResult"]

    def test_unknown_name_is_an_attribute_error(self):
        import repro.desim

        with pytest.raises(AttributeError):
            getattr(repro.desim, "no_such_simulator")
