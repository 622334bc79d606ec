"""Tests for deterministic shard planning and work-stealing rebalance.

The planner and the rebalance rule are *specifications*: pure functions
of their inputs, bit-stable across runs and across ``tiebreak_scope``
seeds.  These tests pin the key-prefix partitioning, the home
assignment, and the steal schedules for seeded starved-shard and
slow-shard scenarios.
"""

import pytest

from repro.desim import tiebreak_scope
from repro.errors import ConfigError
from repro.resilience import (
    PARTITION_PREFIX_HEX,
    ReassignEvent,
    ShardPlanner,
    ShardReport,
    StealEvent,
    partition_for_key,
    simulate_rebalance,
)

pytestmark = pytest.mark.chaos


def _key(i: int) -> str:
    """A synthetic 64-hex cache key with a distinct prefix."""
    return f"{i:08x}" + "0" * 56


class TestPartitionForKey:
    def test_deterministic_and_in_range(self):
        for i in range(64):
            p = partition_for_key(_key(i), 8)
            assert p == partition_for_key(_key(i), 8)
            assert 0 <= p < 8

    def test_prefix_decides_the_partition(self):
        assert partition_for_key(_key(5), 8) == 5 % 8
        assert partition_for_key(_key(0x1234), 16) == 0x1234 % 16

    def test_only_the_prefix_matters(self):
        a = _key(7)
        b = a[:PARTITION_PREFIX_HEX] + "f" * 56
        assert partition_for_key(a, 8) == partition_for_key(b, 8)

    def test_non_hex_prefix_rejected(self):
        with pytest.raises(ConfigError):
            partition_for_key("not-a-hex-key", 8)

    def test_partition_count_validated(self):
        with pytest.raises(ConfigError):
            partition_for_key(_key(1), 0)


class TestShardPlanner:
    def test_shard_count_validated(self):
        with pytest.raises(ConfigError):
            ShardPlanner(0)

    def test_index_assignment_round_robins(self):
        planner = ShardPlanner(3)
        assert planner.assign(list("abcdef")) == (0, 1, 2, 0, 1, 2)

    def test_key_assignment_follows_partitioning(self):
        planner = ShardPlanner(4)
        keys = [_key(i) for i in (0, 5, 9, 14)]
        assert planner.assign(list("abcd"), keys) == tuple(
            partition_for_key(k, 4) for k in keys
        )

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ShardPlanner(2).assign(["a", "b"], keys=[_key(0)])


class TestSimulateRebalance:
    def test_every_task_completes_exactly_once(self):
        queues = [[0, 1, 2, 3], [4, 5], [6]]
        completions, _steals, _makespan = simulate_rebalance(queues)
        assert sorted(t for _s, t in completions) == list(range(7))

    def test_no_steals_on_balanced_queues(self):
        _done, steals, makespan = simulate_rebalance([[0, 1], [2, 3]])
        assert steals == []
        assert makespan == pytest.approx(2.0)

    def test_starved_shard_steals_from_the_tail(self):
        # Shard 1 starts empty: it must steal shard 0's *tail* so the
        # victim keeps its partition-local head.
        completions, steals, makespan = simulate_rebalance([[0, 1, 2, 3],
                                                           []])
        assert steals[0] == StealEvent(thief=1, victim=0, task_index=3)
        assert {t for s, t in completions if s == 1} <= {2, 3}
        assert makespan == pytest.approx(2.0)  # perfectly rebalanced

    def test_slow_shard_loses_backlog_to_the_fast_one(self):
        # Shard 1 runs at 1/10 speed with the same backlog: shard 0
        # finishes its own work then steals most of shard 1's.
        _done, steals, makespan = simulate_rebalance(
            [[0, 1, 2], [3, 4, 5]], speeds=[1.0, 0.1]
        )
        assert all(s.thief == 0 and s.victim == 1 for s in steals)
        assert len(steals) == 2
        # Bounded by the slow shard's single in-flight task (10.0) —
        # far better than the 30.0 it would take unstolen.
        assert makespan == pytest.approx(10.0)

    def test_ties_steal_from_the_lowest_shard_id(self):
        # Shards 1 and 2 hold equal backlogs; the idle shard 0 must
        # steal from shard 1 (lowest id wins the tie).
        _done, steals, _mk = simulate_rebalance([[], [0, 1], [2, 3]])
        assert steals[0].victim == 1

    def test_costs_shape_the_schedule(self):
        # One huge task on shard 0: shard 1 clears everything else.
        completions, _steals, makespan = simulate_rebalance(
            [[0, 1, 2], []], costs=lambda i: 100.0 if i == 0 else 1.0
        )
        assert makespan == pytest.approx(100.0)
        assert {t for s, t in completions if s == 1} == {1, 2}

    def test_validation(self):
        with pytest.raises(ConfigError):
            simulate_rebalance([])
        with pytest.raises(ConfigError):
            simulate_rebalance([[0]], speeds=[1.0, 1.0])
        with pytest.raises(ConfigError):
            simulate_rebalance([[0]], speeds=[0.0])


class TestDeterminism:
    #: Seeded scenarios the steal schedule is pinned for: (queues,
    #: speeds) -> the exact steal log the arbitration rule produces.
    SCENARIOS = {
        "starved": (([[0, 1, 2, 3, 4, 5], []], None),
                    [(1, 0, 5), (1, 0, 4), (1, 0, 3)]),
        # At t=4.0 shards 0 and 1 tie; shard 0 pops first (lowest id)
        # and takes the victim's last task before the victim wakes.
        "slow-shard": (([[0, 1], [2, 3, 4, 5]], [1.0, 0.25]),
                       [(0, 1, 5), (0, 1, 4), (0, 1, 3)]),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_steal_logs(self, name):
        (queues, speeds), expected = self.SCENARIOS[name]
        _done, steals, _mk = simulate_rebalance(queues, speeds=speeds)
        assert [(s.thief, s.victim, s.task_index) for s in steals] \
            == expected

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_steal_log_unmoved_by_tiebreak_seeds(self, seed):
        # The arbitration rule is not built on the discrete-event
        # engine, so perturbing the ambient tie-break seed must not
        # move a single steal.
        for (queues, speeds), expected in self.SCENARIOS.values():
            with tiebreak_scope(seed):
                done, steals, mk = simulate_rebalance(queues,
                                                      speeds=speeds)
            assert [(s.thief, s.victim, s.task_index) for s in steals] \
                == expected

    def test_repeated_runs_identical(self):
        queues = [[0, 3, 6], [1, 4], [2, 5, 7, 8]]
        first = simulate_rebalance(queues, speeds=[1.0, 0.5, 2.0])
        for _ in range(5):
            assert simulate_rebalance(queues,
                                      speeds=[1.0, 0.5, 2.0]) == first


class TestShardReport:
    def test_to_dict_round_trips_the_counts(self):
        report = ShardReport(
            n_shards=2,
            assignments=(0, 1, 0),
            steals=(StealEvent(1, 0, 2),),
            reassignments=(ReassignEvent(0, 1, 2),),
            node_respawns=3,
        )
        assert report.n_steals == 1
        assert report.n_reassignments == 1
        payload = report.to_dict()
        assert payload["n_shards"] == 2
        assert payload["steals"] == [
            {"thief": 1, "victim": 0, "task_index": 2}
        ]
        assert payload["reassignments"] == [
            {"shard": 0, "target": 1, "task_index": 2}
        ]
        assert payload["node_respawns"] == 3
