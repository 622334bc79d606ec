"""Tests for reductions, barriers/blocktime, alignment and memory models."""

import math

import pytest

from repro.arch.machines import A64FX, MILAN, SKYLAKE
from repro.errors import ConfigError
from repro.runtime.affinity import compute_placement
from repro.runtime.alloc import sync_alignment_factor
from repro.runtime.barrier import (
    fork_seconds,
    join_seconds,
    serial_gap_seconds,
    workers_asleep,
)
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.memory import (
    available_bandwidth_gbps,
    memory_time_factor,
    migration_exposure,
)
from repro.runtime.reduction import reduction_seconds


def setup(machine, **env):
    icvs = resolve_icvs(EnvConfig(**env), machine)
    placement = compute_placement(icvs, machine)
    return icvs, placement, machine.costs


class TestReduction:
    def test_zero_vars_free(self):
        icvs, placement, costs = setup(MILAN)
        assert reduction_seconds(icvs, placement, costs, 0) == 0.0

    def test_single_thread_free(self):
        icvs, placement, costs = setup(MILAN, num_threads=1)
        assert reduction_seconds(icvs, placement, costs, 3) == 0.0

    def test_tree_formula(self):
        from repro.runtime.reduction import _team_distance_factor

        for T in (8, 64):
            icvs, placement, c = setup(MILAN, num_threads=T,
                                       force_reduction="tree")
            expected = (
                math.ceil(math.log2(T))
                * c.tree_step_us * 1e-6
                * _team_distance_factor(placement)
            )
            assert reduction_seconds(icvs, placement, c, 1) == pytest.approx(
                expected
            )

    def test_tree_scales_logarithmically_same_distance(self):
        # Both teams confined to LLC group 0 (places=ll_caches + master):
        # identical line-transfer distance, so the round count dominates.
        i4, p4, c = setup(MILAN, num_threads=4, places="ll_caches",
                          proc_bind="master", force_reduction="tree")
        i8, p8, _ = setup(MILAN, num_threads=8, places="ll_caches",
                          proc_bind="master", force_reduction="tree")
        t4 = reduction_seconds(i4, p4, c, 1)
        t8 = reduction_seconds(i8, p8, c, 1)
        assert t8 / t4 == pytest.approx(3 / 2)

    def test_critical_scales_linearly_same_distance(self):
        i4, p4, c = setup(MILAN, num_threads=4, places="ll_caches",
                          proc_bind="master", force_reduction="critical")
        i8, p8, _ = setup(MILAN, num_threads=8, places="ll_caches",
                          proc_bind="master", force_reduction="critical")
        t4 = reduction_seconds(i4, p4, c, 1)
        t8 = reduction_seconds(i8, p8, c, 1)
        assert t8 / t4 == pytest.approx(2.0)

    def test_tree_beats_critical_at_scale(self):
        it, pt, c = setup(MILAN, force_reduction="tree")
        ic, pc, _ = setup(MILAN, force_reduction="critical")
        assert reduction_seconds(it, pt, c, 1) < reduction_seconds(ic, pc, c, 1)

    def test_atomic_scales_with_vars(self):
        icvs, placement, c = setup(MILAN, force_reduction="atomic")
        one = reduction_seconds(icvs, placement, c, 1)
        four = reduction_seconds(icvs, placement, c, 4)
        assert four == pytest.approx(4 * one)

    def test_cross_socket_team_pays_distance(self):
        narrow_i, narrow_p, c = setup(
            MILAN, num_threads=8, places="ll_caches", proc_bind="master",
            force_reduction="tree",
        )
        wide_i, wide_p, _ = setup(
            MILAN, num_threads=8, places="sockets", proc_bind="spread",
            force_reduction="tree",
        )
        assert reduction_seconds(wide_i, wide_p, c, 1) > reduction_seconds(
            narrow_i, narrow_p, c, 1
        )

    def test_negative_vars_rejected(self):
        icvs, placement, c = setup(MILAN)
        with pytest.raises(ConfigError):
            reduction_seconds(icvs, placement, c, -1)


class TestBarrierBlocktime:
    def test_workers_asleep_logic(self):
        passive = resolve_icvs(EnvConfig(), MILAN)  # blocktime 200ms
        assert not workers_asleep(passive, 0.1)
        assert workers_asleep(passive, 0.3)
        zero = resolve_icvs(EnvConfig(blocktime="0"), MILAN)
        assert workers_asleep(zero, 1e-9)
        active = resolve_icvs(EnvConfig(library="turnaround"), MILAN)
        assert not workers_asleep(active, 100.0)
        infinite = resolve_icvs(EnvConfig(blocktime="infinite"), MILAN)
        assert not workers_asleep(infinite, 100.0)

    def test_fork_wake_penalty(self):
        icvs = resolve_icvs(EnvConfig(), MILAN)
        costs = MILAN.costs
        awake = fork_seconds(icvs, costs, team_sleeping=False)
        asleep = fork_seconds(icvs, costs, team_sleeping=True)
        expected_extra = costs.wake_latency_us * 1e-6 * math.ceil(math.log2(96))
        assert asleep - awake == pytest.approx(expected_extra)

    def test_active_join_faster_than_passive(self):
        ia, pa, c = setup(MILAN, library="turnaround")
        ip, pp, _ = setup(MILAN)
        assert join_seconds(ia, pa, c) < join_seconds(ip, pp, c)

    def test_join_free_single_thread(self):
        icvs, placement, c = setup(MILAN, num_threads=1)
        assert join_seconds(icvs, placement, c) == 0.0

    def test_oversubscribed_join_stretches(self):
        io, po, c = setup(MILAN, places="sockets", proc_bind="master")
        ib, pb, _ = setup(MILAN, places="sockets", proc_bind="spread")
        assert join_seconds(io, po, c) > join_seconds(ib, pb, c)

    def test_serial_gap_passive_unchanged(self):
        icvs, placement, _ = setup(MILAN)
        assert serial_gap_seconds(icvs, placement, 0.5) == 0.5

    def test_serial_gap_spinners_sharing_master_core(self):
        # Active waiting + master binding: spinners pile onto core 0.
        icvs, placement, _ = setup(
            MILAN, library="turnaround", proc_bind="master"
        )
        assert serial_gap_seconds(icvs, placement, 0.1) > 0.1

    def test_serial_gap_bound_spread_spinners_harmless(self):
        icvs, placement, _ = setup(
            MILAN, library="turnaround", places="cores", proc_bind="spread"
        )
        assert serial_gap_seconds(icvs, placement, 0.1) == pytest.approx(0.1)


class TestAlignment:
    def test_default_neutral(self):
        icvs = resolve_icvs(EnvConfig(), MILAN)
        assert sync_alignment_factor(icvs, MILAN.costs) == 1.0

    def test_padding_beyond_line_helps_slightly(self):
        icvs = resolve_icvs(EnvConfig(align_alloc=256), MILAN)
        f = sync_alignment_factor(icvs, MILAN.costs)
        assert 0.9 < f < 1.0

    def test_wider_padding_helps_more(self):
        f128 = sync_alignment_factor(
            resolve_icvs(EnvConfig(align_alloc=128), MILAN), MILAN.costs
        )
        f512 = sync_alignment_factor(
            resolve_icvs(EnvConfig(align_alloc=512), MILAN), MILAN.costs
        )
        assert f512 < f128 < 1.0

    def test_sub_line_alignment_false_shares(self):
        icvs = resolve_icvs(EnvConfig(align_alloc=64), A64FX)  # 256B lines
        assert sync_alignment_factor(icvs, A64FX.costs) > 1.0

    def test_a64fx_default_is_line(self):
        icvs = resolve_icvs(EnvConfig(), A64FX)
        assert sync_alignment_factor(icvs, A64FX.costs) == 1.0


class TestMemoryModel:
    def test_migration_exposure_ordering(self):
        assert migration_exposure(MILAN) > migration_exposure(A64FX)
        assert migration_exposure(A64FX) > migration_exposure(SKYLAKE)

    def test_bound_bandwidth_scales_with_numa_used(self):
        _, spread, c = setup(MILAN, places="numa_domains", proc_bind="spread",
                             num_threads=96)
        _, packed, _ = setup(MILAN, places="numa_domains", proc_bind="master",
                             num_threads=12)
        assert available_bandwidth_gbps(spread, c) == pytest.approx(204.8)
        assert available_bandwidth_gbps(packed, c) == pytest.approx(25.6)

    def test_unbound_bandwidth_efficiency(self):
        _, p, c = setup(MILAN)
        assert available_bandwidth_gbps(p, c) == pytest.approx(
            c.unbound_bw_efficiency * 204.8
        )

    def test_no_demand_no_penalty_when_bound(self):
        _, p, c = setup(MILAN, places="cores", proc_bind="spread")
        assert memory_time_factor(p, c, 0.0, random_access=False) == 1.0

    def test_saturation_dilates_superlinearly(self):
        _, p, c = setup(MILAN, places="cores", proc_bind="spread")
        light = memory_time_factor(p, c, 1.0, random_access=False)
        heavy = memory_time_factor(p, c, 4.5, random_access=False)
        assert light == 1.0
        ratio = 4.5 * 96 / 204.8
        assert heavy == pytest.approx(ratio + 2.6 * (ratio - 1) ** 2)

    def test_random_access_unbound_pays_migration(self):
        _, unbound, c = setup(MILAN)
        _, bound, _ = setup(MILAN, places="cores", proc_bind="spread")
        f_unbound = memory_time_factor(unbound, c, 0.0, random_access=True)
        f_bound = memory_time_factor(bound, c, 0.0, random_access=True)
        assert f_bound == 1.0
        assert f_unbound > 1.2

    def test_streaming_unbound_no_migration_penalty(self):
        _, unbound, c = setup(MILAN)
        assert memory_time_factor(unbound, c, 0.0, random_access=False) == 1.0

    def test_arch_contrast_for_same_demand(self):
        # Identical per-thread demand saturates Milan, not A64FX.
        _, pm, cm = setup(MILAN, places="cores", proc_bind="spread")
        _, pa, ca = setup(A64FX, places="cores", proc_bind="spread")
        fm = memory_time_factor(pm, cm, 4.5, random_access=False)
        fa = memory_time_factor(pa, ca, 4.5, random_access=False)
        assert fm > 2.0
        assert fa == 1.0
