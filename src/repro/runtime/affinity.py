"""Thread placement: ``OMP_PLACES`` x ``OMP_PROC_BIND`` -> cores.

Reproduces libomp's distribution rules:

- ``false`` (or everything unset): threads are *unbound*.  The OS load
  balancer spreads them across all cores — modeled as round-robin over the
  machine — but they migrate over time, which costs locality (see
  :attr:`ThreadPlacement.bound`).
- ``master``: every thread is bound to the master thread's place, i.e. the
  place containing core 0.  With more threads than that place has cores the
  team is oversubscribed — the "worst trend" of paper Sec. V-4.
- ``close``: consecutive threads pack into consecutive places (blocked
  distribution).
- ``spread`` (and ``true``, which libomp maps to the same distribution in
  the swept configurations — the paper's Table VII groups "spread/true"):
  threads interleave across places (cyclic distribution), maximizing the
  hardware spread.

When ``OMP_PROC_BIND`` requests binding but ``OMP_PLACES`` is unset, libomp
synthesizes a per-core place list; we do the same.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.arch.topology import MachineTopology, Place, PlaceKind
from repro.errors import ConfigError
from repro.runtime.icv import BindPolicy, ResolvedICVs

__all__ = ["ThreadPlacement", "compute_placement"]

#: Bound on memoized placements.  A sweep needs one per
#: (machine, team size, binding, places) it meets: a few hundred across
#: every machine, scale and thread setting.
_PLACEMENT_MEMO_SIZE = 1024


@dataclass(frozen=True, eq=False)
class ThreadPlacement:
    """Resolved thread -> hardware mapping for one team.

    A placement is an immutable value: its derived invariants
    (:attr:`oversubscription`, :attr:`max_oversubscription`,
    :attr:`n_numa_used`, :attr:`n_llc_used`, :meth:`effective_speed`,
    :attr:`effective_parallelism`, :attr:`slowest_thread_factor` and
    :attr:`master_core_sharers`) are computed once at construction, and
    every array it hands out is read-only, so one placement can be shared
    by every executor that needs it (see :func:`compute_placement`).

    Placements compare and hash by value, over ``(machine, bound,
    cores)``: everything a placement answers derives from those three.
    Bindings that put a team on the same cores are one placement, so the
    model terms that take a placement share their values across them;
    a bound and an unbound team on equal cores are not.

    Attributes
    ----------
    cores:
        Core id per thread (the core the thread runs on / starts on).
    bound:
        Whether threads are pinned.  Unbound threads migrate, paying the
        locality penalties the kernel cost model charges.
    oversubscription:
        Per-thread count of team threads sharing its core (>= 1).
    """

    machine: MachineTopology
    cores: np.ndarray = field(repr=False)
    bound: bool

    def __post_init__(self) -> None:
        if self.cores.ndim != 1 or self.cores.shape[0] < 1:
            raise ConfigError("placement needs at least one thread")
        # One dtype, so equal cores hash alike.
        cores = _read_only(self.cores.astype(np.int64))
        _, inverse, counts = np.unique(
            cores, return_inverse=True, return_counts=True
        )
        oversubscription = _read_only(counts[inverse])
        m = self.machine
        # Frozen dataclass: the derived values bypass its __setattr__.
        store = object.__setattr__
        store(self, "cores", cores)
        store(self, "_oversubscription", oversubscription)
        store(self, "_max_oversubscription", int(oversubscription.max()))
        store(self, "_n_numa_used",
              int(np.unique(cores // m.cores_per_numa).shape[0]))
        store(self, "_n_llc_used",
              int(np.unique(cores // m.cores_per_llc).shape[0]))
        speeds = _read_only(1.0 / oversubscription.astype(float))
        store(self, "_effective_speed", speeds)
        store(self, "_effective_parallelism", float(speeds.sum()))
        store(self, "_slowest_thread_factor", float(1.0 / speeds.min()))
        store(self, "_master_core_sharers",
              int((cores == int(cores[0])).sum()))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ThreadPlacement):
            return NotImplemented
        return (self.bound == other.bound and self.machine == other.machine
                and np.array_equal(self.cores, other.cores))

    def __hash__(self) -> int:
        return hash((self.machine, self.bound, self.cores.tobytes()))

    @property
    def nthreads(self) -> int:
        """Team size."""
        return int(self.cores.shape[0])

    @property
    def oversubscription(self) -> np.ndarray:
        """Per-thread number of team threads mapped to the same core."""
        return self._oversubscription

    @property
    def max_oversubscription(self) -> int:
        """Worst per-core thread pile-up (1 = no sharing)."""
        return self._max_oversubscription

    @property
    def numa_nodes(self) -> np.ndarray:
        """NUMA node per thread."""
        return self.cores // self.machine.cores_per_numa

    @property
    def sockets(self) -> np.ndarray:
        """Socket per thread."""
        return self.cores // self.machine.cores_per_socket

    @property
    def llcs(self) -> np.ndarray:
        """LLC group per thread."""
        return self.cores // self.machine.cores_per_llc

    @property
    def n_numa_used(self) -> int:
        """Distinct NUMA nodes the team touches."""
        return self._n_numa_used

    @property
    def n_llc_used(self) -> int:
        """Distinct LLC groups the team touches."""
        return self._n_llc_used

    def effective_speed(self) -> np.ndarray:
        """Per-thread execution-rate multiplier from core sharing.

        A core timeshared by ``k`` team threads runs each at ``1/k``.
        """
        return self._effective_speed

    @property
    def effective_parallelism(self) -> float:
        """Aggregate execution rate of the team (self-scheduling rate):
        the sum of :meth:`effective_speed`."""
        return self._effective_parallelism

    @property
    def slowest_thread_factor(self) -> float:
        """Penalty of the slowest team member (static scheduling bound):
        ``1 / min(effective_speed())``."""
        return self._slowest_thread_factor

    @property
    def master_core_sharers(self) -> int:
        """Team threads on the master thread's core (the master included)."""
        return self._master_core_sharers

    def mean_numa_distance_to_local_data(self) -> float:
        """Average access cost assuming each thread's data was first-touched
        on its *initial* node.

        Bound teams keep distance 1.0; unbound teams migrate and end up a
        blend of local and machine-average distance.
        """
        if self.bound:
            return 1.0
        m = self.machine
        # Unbound: a migrated thread's pages stay behind. Weight: threads
        # spend ~half their life off their first-touch node on a busy box.
        return 0.5 * 1.0 + 0.5 * m.mean_numa_distance()


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, locked against writes (placements are shared)."""
    array.flags.writeable = False
    return array


def _round_robin_cores(place: Place, count: int, start: int = 0) -> list[int]:
    """Assign ``count`` threads to a place's cores round-robin."""
    width = place.width
    return [place.cores[(start + i) % width] for i in range(count)]


def compute_placement(
    icvs: ResolvedICVs, machine: MachineTopology
) -> ThreadPlacement:
    """Map a resolved team onto cores per places + binding policy.

    A placement depends only on ``(machine, nthreads, bind, places)``, and
    a sweep asks for the same few dozen over and over, so each is built
    once and shared.  ``places`` is dead when threads are unbound
    (``ResolvedICVs.SIGNATURE_DEAD_FIELDS``): it is read only past that
    case, and the unbound key carries ``None`` instead, so unbound
    configurations that differ only in ``OMP_PLACES`` share one entry.
    """
    bind = icvs.bind
    if bind is BindPolicy.FALSE:
        return _build_placement(machine, icvs.nthreads, bind, None)
    return _build_placement(machine, icvs.nthreads, bind, icvs.places)


@functools.lru_cache(maxsize=_PLACEMENT_MEMO_SIZE)
def _build_placement(
    machine: MachineTopology,
    nthreads: int,
    bind: BindPolicy,
    place_kind: PlaceKind | None,
) -> ThreadPlacement:
    """Build the placement of one team (memoized by :func:`compute_placement`)."""
    if bind is BindPolicy.FALSE:
        # Unbound: the OS balances across all cores; migration modeled via
        # bound=False downstream.
        cores = np.arange(nthreads) % machine.n_cores
        return ThreadPlacement(machine=machine, cores=cores, bound=False)

    # Binding requested: materialize the place list. An unset OMP_PLACES
    # with an explicit binding policy synthesizes per-core places.
    if place_kind is PlaceKind.UNSET:
        place_kind = PlaceKind.CORES
    places = machine.places(place_kind)
    n_places = len(places)

    if bind is BindPolicy.MASTER:
        # All threads to the master's place (the one holding core 0).
        master_place = next(p for p in places if 0 in p.cores)
        cores = np.asarray(_round_robin_cores(master_place, nthreads))
        return ThreadPlacement(machine=machine, cores=cores, bound=True)

    if bind is BindPolicy.CLOSE:
        # Blocked: consecutive threads fill each place before the next.
        per_place = -(-nthreads // n_places)  # ceil
        cores = np.empty(nthreads, dtype=np.int64)
        fill: dict[int, int] = {}
        for t in range(nthreads):
            p = min(t // per_place, n_places - 1)
            k = fill.get(p, 0)
            fill[p] = k + 1
            cores[t] = places[p].cores[k % places[p].width]
        return ThreadPlacement(machine=machine, cores=cores, bound=True)

    if bind in (BindPolicy.SPREAD, BindPolicy.TRUE):
        # Sparse distribution: thread t -> place floor(t*P/T), which spaces
        # threads across the place list when T < P and degenerates to the
        # same block distribution as close when T >= P (the place list is
        # subpartitioned, per the OpenMP spec).
        cores = np.empty(nthreads, dtype=np.int64)
        fill = {}
        for t in range(nthreads):
            p = min(t * n_places // nthreads, n_places - 1)
            k = fill.get(p, 0)
            fill[p] = k + 1
            cores[t] = places[p].cores[k % places[p].width]
        return ThreadPlacement(machine=machine, cores=cores, bound=True)

    raise ConfigError(f"unresolvable bind policy {bind}")
