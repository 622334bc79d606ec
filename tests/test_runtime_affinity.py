"""Tests for thread placement (OMP_PLACES x OMP_PROC_BIND)."""

import numpy as np
import pytest

from repro.arch.machines import (
    A64FX,
    MILAN,
    SKYLAKE,
    get_machine,
    machine_names,
)
from repro.arch.topology import PlaceKind
from repro.runtime.affinity import (
    ThreadPlacement,
    _build_placement,
    compute_placement,
)
from repro.runtime.icv import BindPolicy, EnvConfig, resolve_icvs


def place(machine, **kwargs):
    return compute_placement(resolve_icvs(EnvConfig(**kwargs), machine), machine)


class TestUnbound:
    def test_default_unbound_round_robin(self):
        p = place(MILAN)
        assert not p.bound
        assert p.nthreads == 96
        assert p.max_oversubscription == 1

    def test_oversubscribed_unbound(self):
        p = place(MILAN, num_threads=192)
        assert p.max_oversubscription == 2

    def test_unbound_locality_penalty(self):
        p = place(MILAN)
        assert p.mean_numa_distance_to_local_data() > 1.0


class TestMaster:
    def test_master_all_on_master_place_cores(self):
        # places unset + master -> synthesized per-core places -> one core!
        p = place(MILAN, proc_bind="master")
        assert p.bound
        assert np.unique(p.cores).tolist() == [0]
        assert p.max_oversubscription == 96

    def test_master_socket_place(self):
        p = place(MILAN, places="sockets", proc_bind="master")
        # Whole team packed into socket 0: 96 threads on 48 cores.
        assert set(np.unique(p.sockets)) == {0}
        assert p.max_oversubscription == 2

    def test_master_llc_place(self):
        p = place(MILAN, places="ll_caches", proc_bind="master")
        assert set(np.unique(p.llcs)) == {0}
        assert p.max_oversubscription == 12  # 96 threads on 8 cores


class TestCloseSpread:
    def test_close_blocks_over_sockets(self):
        # OpenMP close: blocks of ceil(T/P) consecutive threads per place.
        p = place(MILAN, places="sockets", proc_bind="close", num_threads=48)
        counts = np.bincount(p.sockets, minlength=2)
        assert counts.tolist() == [24, 24]
        assert list(p.sockets[:24]) == [0] * 24  # consecutive threads packed
        assert p.max_oversubscription == 1

    def test_close_vs_spread_when_fewer_threads_than_places(self):
        # T=2 over 8 NUMA places: close keeps them adjacent, spread spaces.
        close = place(MILAN, places="numa_domains", proc_bind="close",
                      num_threads=2)
        spread = place(MILAN, places="numa_domains", proc_bind="spread",
                       num_threads=2)
        assert list(close.numa_nodes) == [0, 1]
        assert list(spread.numa_nodes) == [0, 4]

    def test_spread_interleaves_sockets(self):
        p = place(MILAN, places="sockets", proc_bind="spread", num_threads=48)
        counts = np.bincount(p.sockets, minlength=2)
        assert counts.tolist() == [24, 24]
        assert p.max_oversubscription == 1

    def test_true_equals_spread_distribution(self):
        a = place(MILAN, places="ll_caches", proc_bind="spread", num_threads=24)
        b = place(MILAN, places="ll_caches", proc_bind="true", num_threads=24)
        assert np.array_equal(a.cores, b.cores)

    def test_spread_uses_all_numa_nodes(self):
        p = place(MILAN, places="ll_caches", proc_bind="spread", num_threads=96)
        assert p.n_numa_used == 8

    def test_close_few_threads_few_numa(self):
        p = place(MILAN, places="cores", proc_bind="close", num_threads=12)
        assert p.n_numa_used == 1

    def test_spread_few_threads_many_numa(self):
        p = place(MILAN, places="numa_domains", proc_bind="spread", num_threads=8)
        assert p.n_numa_used == 8

    def test_no_oversubscription_when_threads_fit(self):
        for kind in ("cores", "sockets", "ll_caches"):
            for bind in ("close", "spread", "true"):
                p = place(SKYLAKE, places=kind, proc_bind=bind)
                assert p.max_oversubscription == 1, (kind, bind)

    def test_bind_without_places_synthesizes_core_places(self):
        p = place(SKYLAKE, proc_bind="spread", num_threads=40)
        assert p.bound
        assert len(set(p.cores.tolist())) == 40


class TestDerivedQuantities:
    def test_effective_speed_reflects_sharing(self):
        p = place(MILAN, places="sockets", proc_bind="master")
        assert np.allclose(p.effective_speed(), 0.5)

    def test_bound_distance_is_local(self):
        p = place(MILAN, places="cores", proc_bind="close")
        assert p.mean_numa_distance_to_local_data() == 1.0

    def test_llc_accounting(self):
        p = place(A64FX, places="ll_caches", proc_bind="spread", num_threads=4)
        assert p.n_llc_used == 4

    def test_single_thread(self):
        p = place(MILAN, num_threads=1)
        assert p.nthreads == 1
        assert p.max_oversubscription == 1


# ----------------------------------------------------------------------
# Build-once placements: precomputed invariants and the placement memo
# ----------------------------------------------------------------------
_ALL_MACHINES = [get_machine(name) for name in machine_names()]
_PLACE_KINDS = [kind.value for kind in PlaceKind]
_BINDS = [bind.value for bind in BindPolicy if bind is not BindPolicy.UNSET]


def _team_sizes(machine):
    n = machine.n_cores
    return (1, 2, 3, 7, 13, n // 2, n - 1, n, n + 1, 2 * n + 3)


def _unique_formulas(p):
    """The invariants as the properties computed them on every access."""
    m = p.machine
    _, inverse, counts = np.unique(
        p.cores, return_inverse=True, return_counts=True
    )
    over = counts[inverse]
    return {
        "oversubscription": over,
        "max_oversubscription": int(over.max()),
        "n_numa_used": int(np.unique(p.cores // m.cores_per_numa).shape[0]),
        "n_llc_used": int(np.unique(p.cores // m.cores_per_llc).shape[0]),
        "effective_speed": 1.0 / over.astype(float),
        # The per-call expressions the region engine and the serial-gap
        # model used before they were stored on the placement.
        "effective_parallelism": float((1.0 / over.astype(float)).sum()),
        "slowest_thread_factor": float(
            1.0 / (1.0 / over.astype(float)).min()),
        "master_core_sharers": int((p.cores == int(p.cores[0])).sum()),
    }


class TestPrecomputedInvariants:
    def test_traced_names_stay_properties(self):
        # Outside tooling wraps these class attributes as properties.
        for name in ("oversubscription", "max_oversubscription",
                     "n_numa_used"):
            assert isinstance(ThreadPlacement.__dict__[name], property), name

    @pytest.mark.parametrize("machine", _ALL_MACHINES, ids=lambda m: m.name)
    def test_invariants_equal_the_unique_formulas(self, machine):
        for kind in _PLACE_KINDS:
            for bind in _BINDS:
                for n in _team_sizes(machine):
                    p = place(machine, places=kind, proc_bind=bind,
                              num_threads=n)
                    want = _unique_formulas(p)
                    got = {
                        "oversubscription": p.oversubscription,
                        "max_oversubscription": p.max_oversubscription,
                        "n_numa_used": p.n_numa_used,
                        "n_llc_used": p.n_llc_used,
                        "effective_speed": p.effective_speed(),
                        "effective_parallelism": p.effective_parallelism,
                        "slowest_thread_factor": p.slowest_thread_factor,
                        "master_core_sharers": p.master_core_sharers,
                    }
                    ctx = (machine.name, kind, bind, n)
                    for name in ("max_oversubscription", "n_numa_used",
                                 "n_llc_used", "master_core_sharers"):
                        assert type(got[name]) is int, (name, ctx)
                        assert got[name] == want[name], (name, ctx)
                    for name in ("effective_parallelism",
                                 "slowest_thread_factor"):
                        assert type(got[name]) is float, (name, ctx)
                        assert got[name] == want[name], (name, ctx)
                    for name in ("oversubscription", "effective_speed"):
                        assert got[name].dtype == want[name].dtype, ctx
                        assert np.array_equal(got[name], want[name]), (
                            name, ctx)

    def test_arrays_are_read_only(self):
        p = place(MILAN, places="sockets", proc_bind="master")
        for array in (p.cores, p.oversubscription, p.effective_speed()):
            with pytest.raises(ValueError):
                array[0] = 7

    def test_caller_array_is_not_locked(self):
        cores = np.array([0, 0, 1])
        p = ThreadPlacement(machine=MILAN, cores=cores, bound=True)
        cores[0] = 5  # the placement keeps its own copy
        assert p.cores.tolist() == [0, 0, 1]
        assert p.max_oversubscription == 2


class TestPlacementMemo:
    def test_unbound_ignores_places(self):
        a = place(MILAN, places="sockets", proc_bind="false", num_threads=48)
        b = place(MILAN, places="ll_caches", proc_bind="false",
                  num_threads=48)
        assert a is b

    def test_bound_places_are_distinct(self):
        a = place(MILAN, places="sockets", proc_bind="close", num_threads=48)
        b = place(MILAN, places="ll_caches", proc_bind="close",
                  num_threads=48)
        assert a is not b
        assert not np.array_equal(a.cores, b.cores)

    def test_repeated_calls_share_one_placement(self):
        icvs = resolve_icvs(
            EnvConfig(places="cores", proc_bind="spread", num_threads=40),
            SKYLAKE,
        )
        assert compute_placement(icvs, SKYLAKE) is compute_placement(
            icvs, SKYLAKE)

    def test_memo_is_bounded(self):
        maxsize = _build_placement.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


class TestPlacementValue:
    """Placements compare and hash by ``(machine, bound, cores)``: the
    class pricer shares a term between two teams only if they are one
    placement."""

    def test_bindings_onto_the_same_cores_are_one_placement(self):
        close = place(MILAN, places="cores", proc_bind="close")
        spread = place(MILAN, places="cores", proc_bind="spread")
        assert close is not spread
        assert np.array_equal(close.cores, spread.cores)
        assert close == spread and hash(close) == hash(spread)
        assert len({close, spread}) == 1

    def test_bound_and_unbound_teams_on_equal_cores_differ(self):
        unbound = place(MILAN, num_threads=8)
        bound = place(MILAN, num_threads=8, places="cores",
                      proc_bind="close")
        assert np.array_equal(unbound.cores, bound.cores)
        assert unbound.bound != bound.bound
        assert unbound != bound
        assert len({unbound, bound}) == 2

    def test_equal_cores_on_another_machine_differ(self):
        milan = place(MILAN, num_threads=4, places="cores",
                      proc_bind="close")
        skylake = place(SKYLAKE, num_threads=4, places="cores",
                        proc_bind="close")
        assert np.array_equal(milan.cores, skylake.cores)
        assert milan != skylake

    def test_other_cores_differ(self):
        assert place(MILAN, num_threads=8, places="cores",
                     proc_bind="master") != place(
            MILAN, num_threads=8, places="cores", proc_bind="close")
        assert place(MILAN) != "not a placement"
