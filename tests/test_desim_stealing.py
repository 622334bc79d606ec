"""Tests for the work-stealing task-pool simulator."""

import numpy as np
import pytest

from repro.arch.machines import get_machine
from repro.desim.stealing import SpawnTree, StealResult, WorkStealingSimulator
from repro.errors import SimulationError
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.kernel import RegionEngine
from repro.workloads.base import get_workload


class TestTaskGraph:
    """The complete spawn tree the simulator runs."""

    def test_balanced_tree_counts(self):
        g = SpawnTree(depth=3, branching=2, leaf_work=1.0)
        assert g.n_tasks == 15
        assert g.n_leaves == 8 and g.n_interior == 7
        assert g.total_work == pytest.approx(8.0)

    def test_chain_counts(self):
        g = SpawnTree(depth=39, branching=1, leaf_work=5e-5, node_work=5e-5)
        assert (g.n_interior, g.n_leaves, g.n_tasks) == (39, 1, 40)
        assert g.total_work == pytest.approx(40 * 5e-5)

    def test_critical_path(self):
        g = SpawnTree(depth=3, branching=2, leaf_work=1.0, node_work=0.5)
        assert g.critical_path == pytest.approx(3 * 0.5 + 1.0)

    def test_critical_path_unbalanced(self):
        """Uneven leaves: the path runs through the heaviest one."""
        g = SpawnTree(depth=1, branching=2, leaf_work=[5.0, 0.5],
                      node_work=1.0)
        assert g.critical_path == pytest.approx(6.0)
        assert g.total_work == pytest.approx(6.5)

    def test_leaf_work_is_a_read_only_copy(self):
        leaves = np.array([1.0, 2.0])
        g = SpawnTree(depth=1, branching=2, leaf_work=leaves)
        leaves[0] = 9.0
        assert g.leaf_work.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            g.leaf_work[0] = 3.0

    def test_negative_work_rejected(self):
        for kwargs in (dict(leaf_work=-1.0), dict(leaf_work=[1.0, -1.0]),
                       dict(leaf_work=1.0, node_work=-1.0)):
            with pytest.raises(SimulationError):
                SpawnTree(depth=1, branching=2, **kwargs)

    def test_bad_tree_shape(self):
        for depth, branching, leaf_work in ((-1, 2, 1.0), (2, 0, 1.0),
                                            (1, 2, [1.0, 2.0, 3.0]),
                                            (1, 2, [[1.0, 2.0]])):
            with pytest.raises(SimulationError):
                SpawnTree(depth, branching, leaf_work)

    def test_task_ids_are_heap_indices(self):
        """Children of ``i`` are ``i*b+1 … i*b+b``, pushed in id order, so
        one worker pops the last child first and runs leaves right to
        left."""
        order = []
        g = SpawnTree(depth=2, branching=3, leaf_work=1.0)
        WorkStealingSimulator(1).run(
            g, on_task=lambda w, tid, s, e: order.append(tid)
        )
        assert order == [0, 3, 12, 11, 10, 2, 9, 8, 7, 1, 6, 5, 4]


class TestSimulator:
    def test_single_worker_serial_time(self):
        g = SpawnTree(depth=4, branching=2, leaf_work=1.0, node_work=0.25)
        sim = WorkStealingSimulator(n_workers=1, spawn_overhead=0.0)
        res = sim.run(g)
        assert res.makespan == pytest.approx(g.total_work)
        assert res.steals == 0

    def test_single_leaf_tree(self):
        """The smallest tree is one leaf: it runs on worker 0 alone."""
        res = WorkStealingSimulator(4).run(
            SpawnTree(depth=0, branching=3, leaf_work=2.0),
            worker_speeds=np.array([0.5, 1.0, 1.0, 1.0]),
        )
        assert res.makespan == 4.0 and res.n_tasks == 1
        assert res.steals == 0 and res.busy_time == 4.0

    def test_parallel_speedup(self):
        g = SpawnTree(depth=8, branching=2, leaf_work=1.0)
        t1 = WorkStealingSimulator(1, steal_latency=1e-3).run(g).makespan
        t8 = WorkStealingSimulator(8, steal_latency=1e-3).run(g).makespan
        assert t1 / t8 > 5.0  # near-linear scaling on 256 coarse leaves

    def test_makespan_bounds(self):
        g = SpawnTree(depth=6, branching=3, leaf_work=0.7, node_work=0.1)
        for workers in (2, 4, 16):
            res = WorkStealingSimulator(workers, steal_latency=1e-4).run(g)
            assert res.makespan >= g.total_work / workers - 1e-12
            assert res.makespan >= g.critical_path - 1e-12
            # Within 3x of the greedy-scheduling bound.
            greedy = g.total_work / workers + g.critical_path
            assert res.makespan < 3 * greedy

    def test_work_conservation(self):
        g = SpawnTree(depth=5, branching=2, leaf_work=1.0)
        res = WorkStealingSimulator(4, spawn_overhead=0.0).run(g)
        assert res.busy_time == pytest.approx(g.total_work)

    def test_deterministic(self):
        g = SpawnTree(depth=6, branching=2, leaf_work=0.3)
        a = WorkStealingSimulator(4, seed=5).run(g)
        b = WorkStealingSimulator(4, seed=5).run(g)
        assert a == b

    def test_seed_changes_trajectory(self):
        g = SpawnTree(depth=7, branching=2, leaf_work=0.3)
        a = WorkStealingSimulator(6, seed=1).run(g)
        b = WorkStealingSimulator(6, seed=2).run(g)
        assert a.steals != b.steals or a.makespan != b.makespan

    def test_slow_workers_slow_makespan(self):
        g = SpawnTree(depth=6, branching=2, leaf_work=1.0)
        fast = WorkStealingSimulator(4).run(g).makespan
        slow = WorkStealingSimulator(4).run(
            g, worker_speeds=np.array([0.5, 0.5, 0.5, 0.5])
        ).makespan
        assert slow == pytest.approx(2 * fast, rel=0.25)

    def test_higher_steal_latency_hurts(self):
        g = SpawnTree(depth=9, branching=2, leaf_work=1e-5)
        cheap = WorkStealingSimulator(8, steal_latency=1e-7, seed=0).run(g)
        costly = WorkStealingSimulator(8, steal_latency=1e-4, seed=0).run(g)
        assert costly.makespan > cheap.makespan

    def test_utilization_in_unit_range(self):
        g = SpawnTree(depth=6, branching=2, leaf_work=0.5)
        res = WorkStealingSimulator(4).run(g)
        assert 0.0 < res.utilization <= 1.0

    def test_speedup_over_serial(self):
        g = SpawnTree(depth=8, branching=2, leaf_work=1.0)
        res = WorkStealingSimulator(8, steal_latency=1e-4).run(g)
        assert res.speedup_over_serial > 4.0

    def test_bad_worker_speeds(self):
        g = SpawnTree(depth=2, branching=2, leaf_work=1.0)
        with pytest.raises(SimulationError):
            WorkStealingSimulator(2).run(g, worker_speeds=np.array([1.0]))
        with pytest.raises(SimulationError):
            WorkStealingSimulator(2).run(g, worker_speeds=np.array([1.0, 0.0]))

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            WorkStealingSimulator(0)
        with pytest.raises(SimulationError):
            WorkStealingSimulator(1, steal_latency=0.0)


def _leaves(depth, branching, sigma, seed):
    n = branching**depth
    if sigma == 0:
        return np.full(n, 1e-4)
    rng = np.random.default_rng(seed)
    return 1e-4 * np.exp(sigma * rng.standard_normal(n))


#: (depth, branching, node work, leaf sigma, leaf seed, workers, speeds).
_TREES = {
    "leaf": (0, 3, 2e-5, 0.0, 0, 4, None),
    "chain": (39, 1, 5e-5, 0.0, 0, 4, None),
    "ragged": (5, 3, 2e-5, 0.7, 11, 5, (1.0, 0.5, 0.75, 0.3, 1.2)),
    "flat": (1, 64, 1e-6, 0.4, 5, 7, (0.9, 1.0, 1.1, 0.6, 1.0, 0.8, 1.3)),
    "binary": (8, 2, 3e-6, 0.0, 0, 8, None),
}

#: (tree, simulator seed, makespan, busy time, steals),
#: recorded from the simulator that built a node-by-node task graph.
_PINNED_RUNS = [
    ("leaf", 0, "0x1.a36e2eb1c432dp-14", "0x1.a36e2eb1c432dp-14", 0),
    ("chain", 0, "0x1.268b8503e05f7p-11", "0x1.0db84f6746605p-9", 39),
    ("chain", 1, "0x1.268b8503e05f7p-11", "0x1.0db84f6746605p-9", 39),
    ("chain", 2, "0x1.268b8503e05f7p-11", "0x1.0db84f6746605p-9", 39),
    ("ragged", 0, "0x1.2c26973f293b8p-7", "0x1.62efeb71e6328p-5", 30),
    ("ragged", 1, "0x1.29e5c73926f5fp-7", "0x1.6380ae35139ebp-5", 22),
    ("ragged", 2, "0x1.20c7b3214127dp-7", "0x1.60ac9aae580cfp-5", 36),
    ("ragged", 3, "0x1.1bf56f4c8e314p-7", "0x1.6122961e88422p-5", 29),
    ("flat", 0, "0x1.15762b3104b96p-10", "0x1.b950cfa204117p-8", 58),
    ("flat", 4, "0x1.15762b3104b96p-10", "0x1.b950cfa204117p-8", 58),
    ("flat", 9, "0x1.15762b3104b96p-10", "0x1.b950cfa204117p-8", 58),
    ("binary", 0, "0x1.b3d07c84b5dcep-9", "0x1.b1a2a4db163b7p-6", 45),
    ("binary", 1, "0x1.b2ec50f692991p-9", "0x1.b1a2a4db163b8p-6", 35),
    ("binary", 2, "0x1.b37ff4ace5a6ep-9", "0x1.b1a2a4db163b8p-6", 47),
]

#: (machine, env, phase seed, NQueens small ``solve`` region seconds).
_PINNED_REGIONS = [
    ("milan", dict(library="turnaround"), 0, "0x1.eb0f242851a7dp-16"),
    ("milan", dict(library="turnaround"), 3, "0x1.ec70f3aba9624p-16"),
    ("milan", dict(num_threads=16, proc_bind="spread", places="cores"), 0,
     "0x1.075d60f39e5acp-12"),
    ("milan", dict(num_threads=16, proc_bind="spread", places="cores"), 3,
     "0x1.06dd8293e096dp-12"),
    ("a64fx", dict(blocktime="0"), 0, "0x1.cb810811a929cp-11"),
    ("a64fx", dict(blocktime="0"), 3, "0x1.cbbf76fe453b7p-11"),
]


class TestPinnedTrajectories:
    """Exact makespans, busy times and steal counts, pinned so a change to
    the simulator's data layout cannot move a trajectory."""

    @pytest.mark.parametrize("name, seed, makespan, busy, steals",
                             _PINNED_RUNS)
    def test_run(self, name, seed, makespan, busy, steals):
        depth, b, node, sigma, leaf_seed, workers, speeds = _TREES[name]
        tree = SpawnTree(depth, b, _leaves(depth, b, sigma, leaf_seed), node)
        res = WorkStealingSimulator(
            workers, steal_latency=1e-6, spawn_overhead=2e-7, seed=seed
        ).run(tree, worker_speeds=None if speeds is None else np.array(speeds))
        assert float(res.makespan).hex() == makespan
        assert float(res.busy_time).hex() == busy
        assert res.steals == steals

    @pytest.mark.parametrize("arch, env, seed, seconds", _PINNED_REGIONS)
    def test_nqueens_region(self, arch, env, seed, seconds):
        machine = get_machine(arch)
        region = get_workload("nqueens").program("small").phases[1]
        engine = RegionEngine(machine, resolve_icvs(EnvConfig(**env), machine))
        got = engine.task_region_seconds(region, fidelity="des", seed=seed)
        assert float(got).hex() == seconds


class TestLeafDraws:
    """The DES draws its leaf dispersion as one array; that must equal the
    scalar draw-and-exponentiate loop bit for bit, whichever SIMD loops
    numpy dispatches ``np.exp`` to."""

    @pytest.mark.parametrize("seed", range(20))
    def test_array_draw_equals_scalar_loop(self, seed):
        sigma, leaf_sec, n = 0.6, 5e-7, 5000
        rng = np.random.default_rng(seed)
        scalar = []
        for _ in range(n):
            w = leaf_sec
            w *= float(np.exp(sigma * rng.standard_normal()))
            scalar.append(w)
        rng = np.random.default_rng(seed)
        array = leaf_sec * np.exp(sigma * rng.standard_normal(n))
        assert array.tobytes() == np.array(scalar).tobytes()


class TestStealResult:
    def test_zero_makespan_degenerate(self):
        res = StealResult(0.0, 0.0, 0, 0, 0.0, 4)
        assert res.utilization == 1.0
        assert res.speedup_over_serial == 1.0
