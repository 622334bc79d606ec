"""Tests for machine topologies, the Table I registry and noise models."""

import dataclasses

import numpy as np
import pytest

from repro.arch.machines import (
    A64FX,
    ALL_MACHINES,
    MILAN,
    SKYLAKE,
    get_machine,
    hardware_table,
    machine_names,
)
from repro.arch.noise import NoiseModel, sample_seed
from repro.arch.topology import MachineTopology, PlaceKind
from repro.errors import ReproError, TopologyError, UnknownMachine


class TestTableI:
    """The hardware facts of the paper's Table I."""

    def test_a64fx(self):
        assert A64FX.n_cores == 48
        assert A64FX.n_numa == 4
        assert A64FX.clock_ghz == 1.8
        assert A64FX.mem_type == "HBM"
        assert A64FX.mem_capacity_gb == 32
        assert A64FX.cache_line_bytes == 256

    def test_skylake(self):
        assert SKYLAKE.n_cores == 40
        assert SKYLAKE.n_sockets == 2
        assert SKYLAKE.n_numa == 2
        assert SKYLAKE.clock_ghz == 2.4
        assert SKYLAKE.mem_type == "DDR4"
        assert SKYLAKE.cache_line_bytes == 64

    def test_milan(self):
        assert MILAN.n_cores == 96
        assert MILAN.n_sockets == 2
        assert MILAN.n_numa == 8
        assert MILAN.clock_ghz == 2.3
        assert MILAN.mem_capacity_gb == 251

    def test_registry(self):
        assert set(machine_names()) == {"a64fx", "skylake", "milan"}
        assert get_machine("MILAN") is MILAN
        with pytest.raises(UnknownMachine):
            get_machine("graviton")

    def test_hardware_table_rows(self):
        rows = hardware_table()
        assert len(rows) == 3
        assert {r["architecture"] for r in rows} == set(ALL_MACHINES)


class TestTopologyDerived:
    def test_cores_per_group(self):
        assert MILAN.cores_per_numa == 12
        assert MILAN.cores_per_socket == 48
        assert SKYLAKE.cores_per_numa == 20
        assert A64FX.cores_per_numa == 12

    def test_core_ownership(self):
        assert MILAN.numa_of_core(0) == 0
        assert MILAN.numa_of_core(95) == 7
        assert MILAN.socket_of_core(47) == 0
        assert MILAN.socket_of_core(48) == 1
        assert MILAN.llc_of_core(15) == 1

    def test_core_out_of_range(self):
        with pytest.raises(TopologyError):
            MILAN.numa_of_core(96)

    def test_numa_distance_properties(self):
        d = MILAN.numa_distance_matrix()
        assert d.shape == (8, 8)
        assert np.allclose(np.diag(d), 1.0)
        assert np.allclose(d, d.T)
        # Cross-socket strictly worse than same-socket.
        assert MILAN.numa_distance(0, 7) > MILAN.numa_distance(0, 1)

    def test_mean_numa_distance_ordering(self):
        # Milan's many small domains give the largest average distance.
        assert MILAN.mean_numa_distance() > SKYLAKE.mean_numa_distance()
        assert MILAN.mean_numa_distance() > A64FX.mean_numa_distance()

    @pytest.mark.parametrize("machine", list(ALL_MACHINES.values()),
                             ids=lambda m: m.name)
    def test_mean_numa_distance_is_stored_once(self, machine):
        # Computed at construction with the per-call formula, and kept
        # out of the dataclass fields (equality, hashing, fingerprints).
        value = machine.mean_numa_distance()
        assert type(value) is float
        assert value == float(machine.numa_distance_matrix().mean())
        assert "_mean_numa_distance" not in {
            f.name for f in dataclasses.fields(machine)}
        twin = dataclasses.replace(machine)
        assert twin == machine and hash(twin) == hash(machine)
        assert twin.mean_numa_distance() == value

    def test_total_bandwidth(self):
        assert A64FX.total_mem_bw_gbps == pytest.approx(1024.0)
        assert MILAN.total_mem_bw_gbps == pytest.approx(204.8)


class TestPlaces:
    def test_unset_is_whole_machine(self):
        places = MILAN.places(PlaceKind.UNSET)
        assert len(places) == 1
        assert places[0].width == 96

    def test_cores(self):
        places = SKYLAKE.places("cores")
        assert len(places) == 40
        assert all(p.width == 1 for p in places)

    def test_sockets(self):
        places = MILAN.places(PlaceKind.SOCKETS)
        assert len(places) == 2
        assert places[1].cores[0] == 48

    def test_ll_caches(self):
        assert len(MILAN.places(PlaceKind.LL_CACHES)) == 12
        assert len(SKYLAKE.places(PlaceKind.LL_CACHES)) == 2
        assert len(A64FX.places(PlaceKind.LL_CACHES)) == 4

    def test_numa_domains(self):
        assert len(MILAN.places(PlaceKind.NUMA_DOMAINS)) == 8

    def test_places_partition_all_cores(self):
        for kind in PlaceKind:
            cores = [c for p in MILAN.places(kind) for c in p.cores]
            assert sorted(cores) == list(range(96))

    def test_invalid_topology_rejected(self):
        with pytest.raises(TopologyError):
            MachineTopology(
                name="bad",
                n_cores=10,
                n_sockets=1,
                n_numa=3,  # 10 not divisible by 3
                cores_per_llc=5,
                clock_ghz=1.0,
                cache_line_bytes=64,
                mem_type="DDR4",
                mem_capacity_gb=1,
                mem_bw_per_numa_gbps=10.0,
                costs=MILAN.costs,
                noise=MILAN.noise,
                power=MILAN.power,
            )

    def test_tables_are_required_keywords(self):
        with pytest.raises(TypeError):
            MachineTopology(
                name="bare", n_cores=4, n_sockets=1, n_numa=1,
                cores_per_llc=4, clock_ghz=1.0, cache_line_bytes=64,
                mem_type="DDR4", mem_capacity_gb=1, mem_bw_per_numa_gbps=10.0,
            )


class TestNoise:
    def test_registered_models(self):
        for name in ("a64fx", "skylake", "milan"):
            assert isinstance(get_machine(name).noise, NoiseModel)

    def test_unknown_arch_raises(self):
        # No generic fallback: an unknown name has no noise model.
        with pytest.raises(UnknownMachine):
            get_machine("riscv")

    def test_a64fx_stationary(self):
        m = A64FX.noise
        assert all(d == 1.0 for d in m.drift)

    def test_milan_first_run_slow(self):
        m = MILAN.noise
        assert m.drift_factor(0) > 1.1
        assert m.drift_factor(0) > m.drift_factor(1)

    def test_drift_extends_last_value(self):
        m = NoiseModel(sigma=0.0, drift=(1.0, 1.1))
        assert m.drift_factor(10) == 1.1

    def test_apply_deterministic(self):
        m = MILAN.noise
        a = m.apply(1.0, run_index=1, seed=42)
        b = m.apply(1.0, run_index=1, seed=42)
        assert a == b

    def test_apply_varies_with_seed_and_run(self):
        m = MILAN.noise
        assert m.apply(1.0, 1, 1) != m.apply(1.0, 1, 2)
        assert m.apply(1.0, 1, 1) != m.apply(1.0, 2, 1)

    def test_zero_sigma_pure_drift(self):
        m = NoiseModel(sigma=0.0, drift=(1.5,))
        assert m.apply(2.0, 0, 0) == pytest.approx(3.0)

    def test_invalid_models_rejected(self):
        with pytest.raises(ReproError):
            NoiseModel(sigma=-0.1, drift=(1.0,))
        with pytest.raises(ReproError):
            NoiseModel(sigma=0.1, drift=())
        with pytest.raises(ReproError):
            NoiseModel(sigma=0.1, drift=(0.0,))

    def test_apply_validates_inputs(self):
        m = A64FX.noise
        with pytest.raises(ReproError):
            m.apply(-1.0, 0, 0)
        with pytest.raises(ReproError):
            m.drift_factor(-1)


class TestSampleSeed:
    def test_stable_across_calls(self):
        assert sample_seed("a", 1, (2, 3)) == sample_seed("a", 1, (2, 3))

    def test_order_sensitive(self):
        assert sample_seed("a", "b") != sample_seed("b", "a")

    def test_no_concat_ambiguity(self):
        assert sample_seed("ab", "c") != sample_seed("a", "bc")

    def test_64bit_range(self):
        s = sample_seed("anything")
        assert 0 <= s < 2**64
