"""Tests for the worksharing-loop schedule model, including validation of
the closed-form balance factors against brute-force chunk simulations."""

import math

import numpy as np
import pytest

from repro.arch.machines import MILAN, SKYLAKE
from repro.runtime.affinity import compute_placement
from repro.runtime.costs import work_seconds
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.program import LoadPattern, LoopRegion
from repro.runtime.schedule import price_loop_schedule, static_balance_factor


def price(region, machine=SKYLAKE, **env):
    icvs = resolve_icvs(EnvConfig(**env), machine)
    placement = compute_placement(icvs, machine)
    speeds = placement.effective_speed()
    return price_loop_schedule(
        region,
        icvs,
        machine,
        machine.costs,
        float(speeds.sum()),
        float(1.0 / speeds.min()),
    )


def loop(**kwargs):
    defaults = dict(name="l", n_iters=100_000, iter_work=1e-6)
    defaults.update(kwargs)
    return LoopRegion(**defaults)


class TestStaticBalanceFactor:
    def test_uniform_divisible(self):
        assert static_balance_factor(LoadPattern.UNIFORM, 0, 1000, 10) == 1.0

    def test_uniform_remainder(self):
        # 11 iters on 10 threads: one thread gets 2 -> 2/(11/10) = 1.818...
        f = static_balance_factor(LoadPattern.UNIFORM, 0, 11, 10)
        assert f == pytest.approx(2 / 1.1)

    def test_single_thread_is_one(self):
        assert static_balance_factor(LoadPattern.LINEAR, 1.0, 100, 1) == 1.0

    def test_linear_matches_bruteforce(self):
        n, T, slope = 10_000, 16, 0.8
        costs = 1.0 + slope * (np.arange(n) / n - 0.5)
        block_sums = [c.sum() for c in np.array_split(costs, T)]
        brute = max(block_sums) / (costs.sum() / T)
        model = static_balance_factor(LoadPattern.LINEAR, slope, n, T)
        assert model == pytest.approx(brute, rel=0.02)

    def test_random_tracks_bruteforce(self):
        n, T, sigma = 20_000, 32, 0.6
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(30):
            costs = np.maximum(rng.normal(1.0, sigma, size=n), 0.0)
            block_sums = [c.sum() for c in np.array_split(costs, T)]
            ratios.append(max(block_sums) / (costs.sum() / T))
        brute = float(np.mean(ratios))
        model = static_balance_factor(LoadPattern.RANDOM, sigma, n, T)
        assert model == pytest.approx(brute, rel=0.05)

    def test_more_threads_more_imbalance(self):
        f8 = static_balance_factor(LoadPattern.RANDOM, 0.5, 10_000, 8)
        f64 = static_balance_factor(LoadPattern.RANDOM, 0.5, 10_000, 64)
        assert f64 > f8


class TestSchedulePricing:
    def test_single_thread_serial(self):
        region = loop(n_iters=100, iter_work=1e-4)
        out = price(region, num_threads=1)
        assert out.compute_seconds == pytest.approx(
            work_seconds(region.total_work, SKYLAKE)
        )
        assert out.overhead_seconds == 0.0

    def test_static_no_dispatch_overhead(self):
        out = price(loop())
        assert out.overhead_seconds == 0.0

    def test_auto_equals_static(self):
        region = loop()
        assert price(region, schedule="auto") == price(region, schedule="static")

    def test_fixed_schedule_overrides_env(self):
        region = loop(fixed_schedule="dynamic", fixed_chunk=100)
        a = price(region, schedule="static")
        b = price(region, schedule="guided")
        assert a == b  # env schedule irrelevant

    def test_dynamic_beats_static_on_imbalanced(self):
        region = loop(
            n_iters=4_000,
            iter_work=2e-5,
            pattern=LoadPattern.LINEAR,
            imbalance=1.0,
        )
        st = price(region, schedule="static")
        dy = price(region, schedule="dynamic")
        assert (
            dy.compute_seconds + dy.overhead_seconds
            < st.compute_seconds + st.overhead_seconds
        )

    def test_dynamic_dispatch_catastrophic_on_tiny_iters(self):
        region = loop(n_iters=1_000_000, iter_work=2e-9)
        st = price(region, schedule="static")
        dy = price(region, schedule="dynamic")
        total_st = st.compute_seconds + st.overhead_seconds
        total_dy = dy.compute_seconds + dy.overhead_seconds
        assert total_dy > 5 * total_st  # counter-bound

    def test_dynamic_chunking_tames_dispatch(self):
        fine = loop(n_iters=1_000_000, iter_work=2e-9,
                    fixed_schedule="dynamic", fixed_chunk=1)
        chunked = loop(n_iters=1_000_000, iter_work=2e-9,
                       fixed_schedule="dynamic", fixed_chunk=1000)
        a = price(fine)
        b = price(chunked)
        assert (b.compute_seconds + b.overhead_seconds
                < a.compute_seconds + a.overhead_seconds)
        assert b.n_chunks == 1000

    def test_guided_fewer_chunks_than_dynamic(self):
        region = loop(n_iters=100_000)
        dy = price(region, schedule="dynamic")
        gu = price(region, schedule="guided")
        assert gu.n_chunks < dy.n_chunks
        assert gu.overhead_seconds < dy.overhead_seconds

    def test_guided_balances_imbalanced_loop(self):
        region = loop(
            n_iters=50_000,
            iter_work=1e-6,
            pattern=LoadPattern.RANDOM,
            imbalance=0.8,
        )
        st = price(region, schedule="static")
        gu = price(region, schedule="guided")
        assert gu.balance_factor < st.balance_factor

    def test_self_scheduling_never_balances_worse_than_static(self):
        for pattern, imb in [
            (LoadPattern.UNIFORM, 0.0),
            (LoadPattern.LINEAR, 1.2),
            (LoadPattern.RANDOM, 0.9),
        ]:
            region = loop(n_iters=300, iter_work=1e-5, pattern=pattern,
                          imbalance=imb)
            st = price(region, machine=MILAN, schedule="static")
            for sched in ("dynamic", "guided"):
                out = price(region, machine=MILAN, schedule=sched)
                assert out.balance_factor <= st.balance_factor + 1e-12

    def test_fewer_iterations_than_threads_caps_parallelism(self):
        # 20 iterations on 96 threads: no schedule can beat total/20.
        region = loop(n_iters=20, iter_work=1e-4)
        floor = work_seconds(region.total_work, MILAN) / 20
        for sched in ("static", "dynamic", "guided"):
            out = price(region, machine=MILAN, schedule=sched)
            assert out.compute_seconds >= floor * 0.999, sched

    def test_oversubscription_slows_static_more_than_dynamic(self):
        # 144 unbound threads on 96 cores: half the cores timeshare two
        # threads.  Static is bound by the slowest thread; dynamic runs at
        # the team's aggregate rate.
        region = loop(n_iters=100_000, iter_work=1e-6)
        st = price(region, machine=MILAN, schedule="static", num_threads=144)
        dy = price(region, machine=MILAN, schedule="dynamic", num_threads=144)
        assert st.compute_seconds > 1.2 * dy.compute_seconds

    def test_balance_factor_at_least_one(self):
        for sched in ("static", "dynamic", "guided"):
            out = price(loop(), schedule=sched)
            assert out.balance_factor >= 1.0
