"""The three study machines (Table I) and a machine registry.

Micro-architectural parameters beyond Table I (LLC sharing, NUMA penalties,
bandwidth) come from the publicly documented characteristics of each chip:

- **Fujitsu A64FX**: 48 cores in 4 CMGs (core-memory-groups) of 12, each CMG
  a NUMA node with its own HBM2 stack (~256 GB/s) and shared L2 (the LLC),
  256-byte cache lines, single socket.
- **Intel Xeon Gold 6148 (Skylake)**: 2 sockets x 20 cores, one NUMA node
  per socket, socket-wide shared L3, 64-byte lines, ~128 GB/s per socket
  (6 channels DDR4-2666).
- **AMD EPYC 7643 (Milan)**: 2 sockets x 48 cores, NPS4 so 8 NUMA nodes of
  12 cores, L3 shared per 8-core CCX, 64-byte lines, ~204 GB/s per socket
  (~25.6 GB/s per NUMA node at NPS4 accounting granularity x 8).

Each machine carries its calibrated tables: the runtime cost table
(:mod:`repro.arch.costs`), the measurement-noise model reproducing the
consistency contrast of Tables III/IV (:mod:`repro.arch.noise`: A64FX
quiet and stationary, Milan loud with a slow first run, Skylake flat
means with a small consistent drift after R1) and the power model
(:mod:`repro.arch.power`).
"""

from __future__ import annotations

from repro.arch.costs import RuntimeCosts
from repro.arch.noise import NoiseModel
from repro.arch.power import PowerModel
from repro.arch.topology import MachineTopology
from repro.errors import UnknownMachine

__all__ = [
    "A64FX",
    "SKYLAKE",
    "MILAN",
    "ALL_MACHINES",
    "get_machine",
    "machine_names",
    "hardware_table",
]


A64FX = MachineTopology(
    name="a64fx",
    n_cores=48,
    n_sockets=1,
    n_numa=4,
    cores_per_llc=12,  # L2 shared per CMG is the effective LLC
    clock_ghz=1.8,
    cache_line_bytes=256,
    mem_type="HBM",
    mem_capacity_gb=32,
    mem_bw_per_numa_gbps=256.0,  # one HBM2 stack per CMG
    numa_penalty_same_socket=1.3,  # on-die ring between CMGs
    numa_penalty_cross_socket=1.3,  # single socket: never used, keep = same
    core_perf=0.55,  # weaker OoO core at 1.8 GHz vs server x86
    # Weak cores, slow OS paths, fat HBM: runtime overheads loom large,
    # memory almost never saturates.
    costs=RuntimeCosts(
        fork_base_us=4.0,
        fork_per_thread_us=0.10,
        barrier_step_us=1.4,
        wake_latency_us=30.0,
        dispatch_ns=160.0,
        atomic_ns=180.0,
        critical_ns=700.0,
        tree_step_us=1.1,
        spin_steal_us=0.55,
        os_yield_us=4.5,
        spawn_us=0.45,
        wake_fraction_passive=0.28,
        wake_fraction_blocktime0=0.55,
        congestion_gamma=0.8,
        unbound_bw_efficiency=0.90,
    ),
    noise=NoiseModel(sigma=0.004, drift=(1.0, 1.0, 1.0, 1.0)),
    # Lean cores, big HBM uncore.
    power=PowerModel(core_active_w=2.6, core_spin_w=2.2, core_idle_w=0.3,
                     uncore_w=45.0),
)

SKYLAKE = MachineTopology(
    name="skylake",
    n_cores=40,
    n_sockets=2,
    n_numa=2,
    cores_per_llc=20,  # socket-wide L3
    clock_ghz=2.4,
    cache_line_bytes=64,
    mem_type="DDR4",
    mem_capacity_gb=188,
    mem_bw_per_numa_gbps=128.0,  # 6ch DDR4-2666 per socket
    numa_penalty_same_socket=1.0,  # one NUMA node per socket
    numa_penalty_cross_socket=1.9,  # UPI hop
    core_perf=1.0,
    # Two fat sockets, big shared L3s, ample per-socket bandwidth for 20
    # cores: a forgiving machine.
    costs=RuntimeCosts(
        fork_base_us=1.2,
        fork_per_thread_us=0.05,
        barrier_step_us=0.55,
        wake_latency_us=6.0,
        dispatch_ns=45.0,
        atomic_ns=60.0,
        critical_ns=260.0,
        tree_step_us=0.40,
        spin_steal_us=0.20,
        os_yield_us=1.6,
        spawn_us=0.22,
        wake_fraction_passive=0.22,
        wake_fraction_blocktime0=0.45,
        congestion_gamma=1.2,
        unbound_bw_efficiency=0.88,
    ),
    noise=NoiseModel(sigma=0.020, drift=(1.0, 1.0, 1.012, 1.022)),
    # 150W TDP per socket across 20 cores + fat uncore.
    power=PowerModel(core_active_w=4.6, core_spin_w=3.8, core_idle_w=0.6,
                     uncore_w=80.0),
)

MILAN = MachineTopology(
    name="milan",
    n_cores=96,
    n_sockets=2,
    n_numa=8,
    cores_per_llc=8,  # L3 per CCX
    clock_ghz=2.3,
    cache_line_bytes=64,
    mem_type="DDR4",
    mem_capacity_gb=251,
    mem_bw_per_numa_gbps=25.6,  # 204.8 GB/s per socket at NPS4
    numa_penalty_same_socket=1.4,  # Infinity Fabric on-package
    numa_penalty_cross_socket=2.3,  # xGMI socket hop
    core_perf=1.05,
    # 96 cores over 8 NUMA nodes at NPS4: fabric congestion punishes
    # bandwidth oversubscription hard.
    costs=RuntimeCosts(
        fork_base_us=1.6,
        fork_per_thread_us=0.045,
        barrier_step_us=0.65,
        wake_latency_us=6.0,
        dispatch_ns=55.0,
        atomic_ns=75.0,
        critical_ns=330.0,
        tree_step_us=0.55,
        spin_steal_us=0.22,
        os_yield_us=1.3,
        spawn_us=0.24,
        wake_fraction_passive=0.15,
        wake_fraction_blocktime0=0.40,
        congestion_gamma=2.6,
        unbound_bw_efficiency=0.75,
    ),
    noise=NoiseModel(sigma=0.030, drift=(1.22, 1.0, 1.015, 1.033)),
    # 225W per socket over 48 efficient cores.
    power=PowerModel(core_active_w=2.9, core_spin_w=2.3, core_idle_w=0.4,
                     uncore_w=95.0),
)

#: Registry of the study machines in the paper's presentation order.
ALL_MACHINES: dict[str, MachineTopology] = {
    m.name: m for m in (A64FX, SKYLAKE, MILAN)
}


def get_machine(name: str) -> MachineTopology:
    """Look up a machine by name (case-insensitive); an unknown name
    raises :class:`~repro.errors.UnknownMachine`."""
    key = name.lower()
    try:
        return ALL_MACHINES[key]
    except KeyError:
        raise UnknownMachine(
            f"unknown machine {name!r}; have {sorted(ALL_MACHINES)}"
        ) from None


def machine_names() -> list[str]:
    """Registered machine names."""
    return list(ALL_MACHINES)


def hardware_table() -> list[dict[str, object]]:
    """Table I of the paper as a list of row dicts."""
    return [m.describe() for m in ALL_MACHINES.values()]
