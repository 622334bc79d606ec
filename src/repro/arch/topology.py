"""CPU topology: cores, sockets, NUMA nodes, shared caches, places.

The LLVM/OpenMP runtime partitions hardware into *places* according to
``OMP_PLACES`` and distributes threads over them according to
``OMP_PROC_BIND``.  :class:`MachineTopology` provides exactly the facts the
simulated runtime needs for that: which cores share a socket / NUMA node /
last-level cache, the relative memory-access penalty between NUMA nodes,
and per-NUMA memory bandwidth.  It is the one description of a machine:
its runtime cost table, measurement-noise model and power model are
fields of the same frozen record.

Core numbering is hierarchical and contiguous: cores ``[k * cores_per_numa,
(k+1) * cores_per_numa)`` belong to NUMA node ``k``, and NUMA nodes are
contiguous within sockets — the layout Linux exposes on all three study
machines.
"""

from __future__ import annotations

import enum
from dataclasses import KW_ONLY, dataclass, fields

import numpy as np

from repro.arch.costs import RuntimeCosts
from repro.arch.noise import NoiseModel
from repro.arch.power import PowerModel
from repro.errors import TopologyError

__all__ = ["PlaceKind", "Place", "MachineTopology", "hashed_once"]


class PlaceKind(str, enum.Enum):
    """Legal ``OMP_PLACES`` partitions (paper Sec. III-1).

    ``THREADS`` and ``NUMA_DOMAINS`` exist for completeness; the paper
    excludes ``threads`` (no SMT machines) and ``numa_domains`` (requires
    hwloc) from its sweeps, and so do our default grids.
    """

    UNSET = "unset"
    CORES = "cores"
    SOCKETS = "sockets"
    LL_CACHES = "ll_caches"
    NUMA_DOMAINS = "numa_domains"
    THREADS = "threads"


@dataclass(frozen=True)
class Place:
    """A set of cores a thread may be bound to."""

    index: int
    cores: tuple[int, ...]

    @property
    def width(self) -> int:
        """Number of cores in the place."""
        return len(self.cores)


def hashed_once(cls: type) -> type:
    """Make a frozen dataclass hash its fields once per instance.

    Machines key the runtime's placement cache (``compute_placement``)
    and regions key the region engine's memo, so a sweep looks each one
    up thousands of times.  The first ``hash`` computes the value the
    generated ``__hash__`` would (the hash of the field tuple) and keeps
    it on the instance.  ``str`` hashes are salted per process, so the
    kept value never travels: ``__getstate__`` leaves it out of pickles
    and copies, and the receiving process hashes again.
    """
    # The fields the generated hash would cover.
    names = tuple(f.name for f in fields(cls)
                  if (f.compare if f.hash is None else f.hash))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(getattr(self, name) for name in names))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@hashed_once
@dataclass(frozen=True)
class MachineTopology:
    """Static description of one CPU machine.

    Parameters mirror Table I plus the micro-architectural facts the cost
    model needs (cache line size for the ``KMP_ALIGN_ALLOC`` false-sharing
    model, LLC sharing for ``ll_caches`` places, NUMA distances and
    bandwidth for locality penalties), and the machine's calibrated
    tables: runtime costs, measurement noise and power.
    """

    name: str
    n_cores: int
    n_sockets: int
    n_numa: int
    cores_per_llc: int
    clock_ghz: float
    cache_line_bytes: int
    mem_type: str
    mem_capacity_gb: int
    #: Sustainable memory bandwidth of one NUMA node, GB/s.
    mem_bw_per_numa_gbps: float
    #: Relative extra cost of accessing memory on a same-socket remote NUMA
    #: node (1.0 = local).
    numa_penalty_same_socket: float = 1.5
    #: Relative extra cost of accessing memory across sockets.
    numa_penalty_cross_socket: float = 2.2
    #: Relative single-core throughput (A64FX cores are weaker per clock).
    core_perf: float = 1.0
    #: SMT threads per core — 1 on all study machines (SMT disabled).
    smt_per_core: int = 1
    _: KW_ONLY
    #: Primitive-operation costs of the simulated libomp on this machine.
    costs: RuntimeCosts
    #: Run-to-run measurement noise (drift and jitter).
    noise: NoiseModel
    #: Per-core and uncore power draw.
    power: PowerModel

    def __post_init__(self) -> None:
        if self.n_cores <= 0 or self.n_sockets <= 0 or self.n_numa <= 0:
            raise TopologyError(f"{self.name}: non-positive topology counts")
        if self.n_cores % self.n_numa != 0:
            raise TopologyError(
                f"{self.name}: {self.n_cores} cores not divisible by "
                f"{self.n_numa} NUMA nodes"
            )
        if self.n_numa % self.n_sockets != 0:
            raise TopologyError(
                f"{self.name}: {self.n_numa} NUMA nodes not divisible by "
                f"{self.n_sockets} sockets"
            )
        if self.n_cores % self.cores_per_llc != 0:
            raise TopologyError(
                f"{self.name}: {self.n_cores} cores not divisible by LLC "
                f"group size {self.cores_per_llc}"
            )
        if self.cache_line_bytes not in (32, 64, 128, 256):
            raise TopologyError(
                f"{self.name}: implausible cache line {self.cache_line_bytes}"
            )
        # Frozen dataclass: the derived value bypasses its __setattr__ and,
        # not being a field, stays out of equality, hashing and the
        # cache's machine fingerprint.
        object.__setattr__(
            self, "_mean_numa_distance",
            float(self.numa_distance_matrix().mean()),
        )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def cores_per_numa(self) -> int:
        """Cores in one NUMA node."""
        return self.n_cores // self.n_numa

    @property
    def cores_per_socket(self) -> int:
        """Cores in one socket."""
        return self.n_cores // self.n_sockets

    @property
    def numa_per_socket(self) -> int:
        """NUMA nodes in one socket."""
        return self.n_numa // self.n_sockets

    @property
    def total_mem_bw_gbps(self) -> float:
        """Aggregate machine memory bandwidth."""
        return self.mem_bw_per_numa_gbps * self.n_numa

    def numa_of_core(self, core: int) -> int:
        """NUMA node owning ``core``."""
        self._check_core(core)
        return core // self.cores_per_numa

    def socket_of_core(self, core: int) -> int:
        """Socket owning ``core``."""
        self._check_core(core)
        return core // self.cores_per_socket

    def llc_of_core(self, core: int) -> int:
        """Last-level-cache group owning ``core``."""
        self._check_core(core)
        return core // self.cores_per_llc

    def socket_of_numa(self, numa: int) -> int:
        """Socket owning NUMA node ``numa``."""
        if not 0 <= numa < self.n_numa:
            raise TopologyError(f"{self.name}: NUMA node {numa} out of range")
        return numa // self.numa_per_socket

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.n_cores:
            raise TopologyError(
                f"{self.name}: core {core} out of range [0, {self.n_cores})"
            )

    # ------------------------------------------------------------------
    # NUMA distances
    # ------------------------------------------------------------------
    def numa_distance(self, a: int, b: int) -> float:
        """Relative memory-access cost from NUMA node ``a`` to ``b``.

        1.0 for local accesses, :attr:`numa_penalty_same_socket` within a
        socket, :attr:`numa_penalty_cross_socket` across sockets.
        """
        if a == b:
            return 1.0
        if self.socket_of_numa(a) == self.socket_of_numa(b):
            return self.numa_penalty_same_socket
        return self.numa_penalty_cross_socket

    def numa_distance_matrix(self) -> np.ndarray:
        """(n_numa, n_numa) matrix of :meth:`numa_distance` values."""
        out = np.empty((self.n_numa, self.n_numa))
        for a in range(self.n_numa):
            for b in range(self.n_numa):
                out[a, b] = self.numa_distance(a, b)
        return out

    def mean_numa_distance(self) -> float:
        """Average distance from a node to all nodes (interleaved-page cost).

        Computed once at construction.
        """
        return self._mean_numa_distance

    # ------------------------------------------------------------------
    # Places
    # ------------------------------------------------------------------
    def places(self, kind: PlaceKind | str) -> list[Place]:
        """Partition the machine into places per ``OMP_PLACES``.

        ``UNSET`` returns a single place spanning the whole machine — the
        runtime treats "no places" as free movement over all cores, and a
        full-machine place models that for distribution purposes.
        """
        kind = PlaceKind(kind)
        if kind in (PlaceKind.UNSET,):
            return [Place(0, tuple(range(self.n_cores)))]
        if kind in (PlaceKind.CORES, PlaceKind.THREADS):
            # No SMT on the study machines: threads == cores.
            return [Place(i, (i,)) for i in range(self.n_cores)]
        if kind is PlaceKind.SOCKETS:
            width = self.cores_per_socket
        elif kind is PlaceKind.LL_CACHES:
            width = self.cores_per_llc
        elif kind is PlaceKind.NUMA_DOMAINS:
            width = self.cores_per_numa
        else:  # pragma: no cover - exhaustive enum
            raise TopologyError(f"unhandled place kind {kind}")
        return [
            Place(i, tuple(range(i * width, (i + 1) * width)))
            for i in range(self.n_cores // width)
        ]

    def describe(self) -> dict[str, object]:
        """Table I row for this machine."""
        return {
            "architecture": self.name,
            "cores": self.n_cores,
            "sockets": self.n_sockets,
            "numa_nodes": self.n_numa,
            "clock_ghz": self.clock_ghz,
            "memory_type": self.mem_type,
            "memory_gb": self.mem_capacity_gb,
            "cache_line_bytes": self.cache_line_bytes,
        }
