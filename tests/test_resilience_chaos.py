"""Tests for the deterministic chaos-injection plans.

Runs under the ``chaos`` marker so ``pytest -m chaos`` exercises the
fault-injection machinery behind ``repro-omp chaos``.
"""

import pytest

from repro.errors import ConfigError
from repro.resilience import ChaosFault, ChaosPlan
from repro.resilience.chaos import (
    CACHE_FAULT_KINDS,
    CORRUPT_MARKER,
    WORKER_FAULT_KINDS,
    apply_cache_fault,
    corrupted_payload,
)

pytestmark = pytest.mark.chaos


class TestChaosFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ChaosFault("meteor-strike", 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            ChaosFault("crash", -1)

    def test_applies_default_first_attempt_only(self):
        fault = ChaosFault("crash", 3)
        assert fault.applies(0) and not fault.applies(1)

    def test_poison_applies_to_every_attempt(self):
        fault = ChaosFault("crash", 3, attempts=None)
        assert all(fault.applies(a) for a in range(5))
        assert fault.describe()["attempts"] == "all"


class TestChaosPlanGenerate:
    def test_same_seed_same_plan(self):
        kwargs = dict(crashes=1, hangs=1, corrupt_results=1,
                      cache_faults=1, poison=1)
        assert (ChaosPlan.generate(12, seed=5, **kwargs)
                == ChaosPlan.generate(12, seed=5, **kwargs))

    def test_faults_land_on_distinct_batches(self):
        plan = ChaosPlan.generate(8, seed=2, crashes=2, hangs=2,
                                  corrupt_results=2, cache_faults=1,
                                  poison=1)
        indices = [f.batch_index for f in plan.faults]
        assert len(indices) == len(set(indices)) == 8

    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigError):
            ChaosPlan.generate(3, crashes=2, hangs=2)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            ChaosPlan.generate(10, crashes=-1)

    def test_roundtrip_through_dict(self):
        plan = ChaosPlan.generate(10, seed=9, crashes=1, hangs=1,
                                  corrupt_results=1, cache_faults=1,
                                  poison=1)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_malformed_dict_rejected(self):
        with pytest.raises(ConfigError):
            ChaosPlan.from_dict({"seed": 0})

    def test_no_global_rng_consumed(self):
        import random

        random.seed(99)
        before = random.getstate()
        ChaosPlan.generate(20, seed=4, crashes=3, cache_faults=2)
        assert random.getstate() == before


class TestFaultLookup:
    @pytest.fixture
    def plan(self):
        return ChaosPlan(seed=0, faults=(
            ChaosFault("crash", 0),
            ChaosFault("hang", 1),
            ChaosFault("crash", 2, attempts=None),     # poison
            ChaosFault("cache-bit-flip", 3, attempts=None),
        ))

    def test_worker_fault_first_attempt_only(self, plan):
        assert plan.worker_fault(0, 0) == "crash"
        assert plan.worker_fault(0, 1) is None
        assert plan.worker_fault(1, 0) == "hang"

    def test_poison_fires_every_attempt(self, plan):
        assert all(plan.worker_fault(2, a) == "crash" for a in range(4))

    def test_cache_fault_separate_namespace(self, plan):
        assert plan.cache_fault(3) == "cache-bit-flip"
        assert plan.worker_fault(3, 0) is None
        assert plan.cache_fault(0) is None

    def test_clean_batch_has_no_fault(self, plan):
        assert plan.worker_fault(9, 0) is None
        assert plan.cache_fault(9) is None

    def test_attempt_fault_takes_the_node_fault_first(self):
        plan = ChaosPlan(seed=0, faults=(
            ChaosFault("crash", 0),
            ChaosFault("node-lost", 0),
            ChaosFault("hang", 1, attempts=(1,)),
            ChaosFault("cache-bit-flip", 2, attempts=None),
        ))
        assert plan.attempt_fault(0, 0) == "node-lost"
        assert plan.attempt_fault(0, 1) is None
        assert plan.attempt_fault(1, 0) is None
        assert plan.attempt_fault(1, 1) == "hang"
        assert plan.attempt_fault(2, 0) is None  # cache faults strike later


class TestFaultEffects:
    def test_corrupted_payload_is_not_records(self):
        payload = corrupted_payload(7)
        assert CORRUPT_MARKER in payload and 7 in payload

    def test_torn_write_truncates(self, tmp_path):
        victim = tmp_path / "entry.json"
        victim.write_bytes(b"x" * 100)
        apply_cache_fault(victim, "cache-torn-write")
        assert len(victim.read_bytes()) == 50

    def test_bit_flip_changes_one_byte_same_length(self, tmp_path):
        victim = tmp_path / "entry.json"
        original = bytes(range(64))
        victim.write_bytes(original)
        apply_cache_fault(victim, "cache-bit-flip")
        flipped = victim.read_bytes()
        assert len(flipped) == len(original)
        assert sum(a != b for a, b in zip(original, flipped)) == 1

    def test_unknown_cache_fault_rejected(self, tmp_path):
        victim = tmp_path / "entry.json"
        victim.write_bytes(b"data")
        with pytest.raises(ConfigError):
            apply_cache_fault(victim, "cache-gamma-ray")

    def test_kind_partition(self):
        assert not set(WORKER_FAULT_KINDS) & set(CACHE_FAULT_KINDS)


class TestServiceFault:
    """Request-path faults of the serving daemon's chaos scenario."""

    def test_known_kinds(self):
        from repro.resilience.chaos import SERVICE_FAULT_KINDS

        assert SERVICE_FAULT_KINDS == (
            "slow-client", "backend-death-mid-request", "kill-during-drain",
        )

    def test_unknown_kind_rejected(self):
        from repro.resilience.chaos import ServiceFault

        with pytest.raises(ConfigError, match="unknown service fault"):
            ServiceFault("coffee-spill", 0)

    def test_negative_indices_rejected(self):
        from repro.resilience.chaos import ServiceFault

        with pytest.raises(ConfigError):
            ServiceFault("slow-client", -1)
        with pytest.raises(ConfigError):
            ServiceFault("backend-death-mid-request", 0, batch_index=-2)

    def test_service_kinds_disjoint_from_sweep_kinds(self):
        from repro.resilience.chaos import FAULT_KINDS, SERVICE_FAULT_KINDS

        assert not set(SERVICE_FAULT_KINDS) & set(FAULT_KINDS)


class TestServiceChaosPlan:
    def test_same_seed_same_plan(self):
        from repro.resilience.chaos import ServiceChaosPlan

        a = ServiceChaosPlan.generate(8, 4, seed=3)
        b = ServiceChaosPlan.generate(8, 4, seed=3)
        assert a == b
        assert a != ServiceChaosPlan.generate(8, 4, seed=4)

    def test_faults_land_on_distinct_requests(self):
        from repro.resilience.chaos import ServiceChaosPlan

        plan = ServiceChaosPlan.generate(6, 4, seed=0, slow_clients=2,
                                         backend_deaths=2, drain_kills=2)
        indices = [f.request_index for f in plan.faults]
        assert len(indices) == len(set(indices)) == 6
        assert indices == sorted(indices)

    def test_fault_at_lookup(self):
        from repro.resilience.chaos import ServiceChaosPlan

        plan = ServiceChaosPlan.generate(5, 4, seed=0)
        hit_indices = {f.request_index for f in plan.faults}
        for idx in range(5):
            fault = plan.fault_at(idx)
            if idx in hit_indices:
                assert fault is not None and fault.request_index == idx
            else:
                assert fault is None

    def test_roundtrips_through_dict(self):
        from repro.resilience.chaos import ServiceChaosPlan

        plan = ServiceChaosPlan.generate(7, 3, seed=9)
        assert ServiceChaosPlan.from_dict(plan.to_dict()) == plan

    def test_malformed_dict_rejected(self):
        from repro.resilience.chaos import ServiceChaosPlan

        with pytest.raises(ConfigError, match="malformed service chaos"):
            ServiceChaosPlan.from_dict({"seed": 0})

    def test_overbooked_scenario_rejected(self):
        from repro.resilience.chaos import ServiceChaosPlan

        with pytest.raises(ConfigError, match="distinct requests"):
            ServiceChaosPlan.generate(2, 4, slow_clients=1,
                                      backend_deaths=1, drain_kills=1)
        with pytest.raises(ConfigError):
            ServiceChaosPlan.generate(5, 0)
        with pytest.raises(ConfigError):
            ServiceChaosPlan.generate(5, 4, drain_kills=-1)
