"""Extension machines — the paper's "latest CPU chips" future work.

The conclusion commits to "add more thread counts and latest CPU chips in
the data collection strategy".  This module provides two post-paper
machine models and the registration hook to run the full pipeline on
them:

- **AMD EPYC 9654 "Genoa"**: Milan's successor — 96 Zen4 cores per
  socket, 12 DDR5 channels, NPS4.  Structurally a bigger Milan, so the
  methodology predicts the same congestion-driven tuning headroom.
- **NVIDIA Grace**: 72 Neoverse V2 cores behind a *flat* LPDDR5X memory
  system (one NUMA domain, ~500 GB/s).  No NUMA structure means binding
  and thread-count knobs should lose most of their leverage — a strong
  out-of-distribution test for the transfer analysis.

Each is one :class:`~repro.arch.topology.MachineTopology` value with its
cost, noise and power tables in place.  Extension machines are not
registered by default (the paper benches assert the study's exact three
machines); call :func:`register_machine` to add one to the global
registry, or pass the topology objects directly to the executor APIs
that accept them.
"""

from __future__ import annotations

from repro.arch.costs import RuntimeCosts
from repro.arch.machines import ALL_MACHINES
from repro.arch.noise import NoiseModel
from repro.arch.power import PowerModel
from repro.arch.topology import MachineTopology
from repro.errors import TopologyError

__all__ = ["GENOA", "GRACE", "register_machine", "unregister_machine"]


GENOA = MachineTopology(
    name="genoa",
    n_cores=192,
    n_sockets=2,
    n_numa=8,
    cores_per_llc=8,  # L3 per CCX
    clock_ghz=2.4,
    cache_line_bytes=64,
    mem_type="DDR5",
    mem_capacity_gb=768,
    mem_bw_per_numa_gbps=57.6,  # 460 GB/s per socket at NPS4
    numa_penalty_same_socket=1.35,
    numa_penalty_cross_socket=2.2,
    core_perf=1.25,  # Zen4 IPC + clocks
    costs=RuntimeCosts(
        fork_base_us=1.5,
        fork_per_thread_us=0.035,
        barrier_step_us=0.60,
        wake_latency_us=8.0,
        dispatch_ns=50.0,
        atomic_ns=65.0,
        critical_ns=300.0,
        tree_step_us=0.50,
        spin_steal_us=0.20,
        os_yield_us=1.2,
        spawn_us=0.22,
        wake_fraction_passive=0.15,
        wake_fraction_blocktime0=0.40,
        congestion_gamma=2.4,  # same NPS4 fabric character as Milan
        unbound_bw_efficiency=0.78,
    ),
    noise=NoiseModel(sigma=0.025, drift=(1.15, 1.0, 1.01, 1.02)),
    power=PowerModel(core_active_w=2.8, core_spin_w=2.2, core_idle_w=0.4,
                     uncore_w=110.0),
)

GRACE = MachineTopology(
    name="grace",
    n_cores=72,
    n_sockets=1,
    n_numa=1,  # flat LPDDR5X behind the Scalable Coherency Fabric
    cores_per_llc=72,  # one big distributed L3
    clock_ghz=3.1,
    cache_line_bytes=64,
    mem_type="LPDDR5X",
    mem_capacity_gb=480,
    mem_bw_per_numa_gbps=500.0,
    numa_penalty_same_socket=1.0,
    numa_penalty_cross_socket=1.0,
    core_perf=1.15,
    costs=RuntimeCosts(
        fork_base_us=1.4,
        fork_per_thread_us=0.05,
        barrier_step_us=0.50,
        wake_latency_us=7.0,
        dispatch_ns=48.0,
        atomic_ns=55.0,
        critical_ns=240.0,
        tree_step_us=0.42,
        spin_steal_us=0.20,
        os_yield_us=1.5,
        spawn_us=0.22,
        wake_fraction_passive=0.20,
        wake_fraction_blocktime0=0.45,
        congestion_gamma=0.6,  # flat, fat memory: rarely congests
        unbound_bw_efficiency=0.97,  # nothing to scatter across
    ),
    noise=NoiseModel(sigma=0.008, drift=(1.0, 1.0, 1.0, 1.0)),
    power=PowerModel(core_active_w=3.2, core_spin_w=2.6, core_idle_w=0.4,
                     uncore_w=60.0),
)


def register_machine(machine: MachineTopology) -> MachineTopology:
    """Add an extension machine to the global registry, enabling
    sweeps/CLI use by name."""
    if machine.name in ALL_MACHINES and ALL_MACHINES[machine.name] is not machine:
        raise TopologyError(f"machine {machine.name!r} already registered")
    ALL_MACHINES[machine.name] = machine
    return machine


def unregister_machine(name: str) -> None:
    """Remove an extension machine from the registry (study machines are
    protected)."""
    if name in ("a64fx", "skylake", "milan"):
        raise TopologyError(f"cannot unregister study machine {name!r}")
    ALL_MACHINES.pop(name, None)
