"""Program abstraction: what an OpenMP application looks like to libomp.

The env-var sweep observes each benchmark purely through its runtime
behaviour, so a benchmark is modeled as the sequence of phases the runtime
executes:

- :class:`SerialPhase` — single-threaded work between parallel regions,
- :class:`LoopRegion` — a worksharing loop (``#pragma omp parallel for``)
  with an iteration-cost profile, memory characteristics and trailing
  reductions,
- :class:`TaskRegion` — a task-spawning region (``#pragma omp parallel``
  + recursive ``task``), described by its spawn-tree shape.

Regions carry a ``trips`` count: NPB-style apps run the same region
hundreds of times, and the executor prices one invocation and multiplies —
this compression is what makes quarter-million-sample sweeps tractable.
``gap_work`` is the serial work between consecutive invocations of the
region; together with ``KMP_BLOCKTIME`` it decides whether worker threads
fall asleep between regions (and must be woken at the next fork).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.arch.topology import hashed_once
from repro.errors import WorkloadError

__all__ = ["LoadPattern", "SerialPhase", "LoopRegion", "TaskRegion", "Program"]


class LoadPattern(str, enum.Enum):
    """Iteration-cost profile of a worksharing loop."""

    #: All iterations cost the same (EP, XSBench-style lookup loops).
    UNIFORM = "uniform"
    #: Cost ramps linearly across the iteration space (triangular solves,
    #: LU panels); ``imbalance`` is the relative slope in [0, 2).
    LINEAR = "linear"
    #: Iteration costs are i.i.d. lognormal-ish; ``imbalance`` is the
    #: relative standard deviation (sparse rows, health-care regions).
    RANDOM = "random"


@dataclass(frozen=True)
class SerialPhase:
    """Single-threaded work (initialization, I/O, inter-region glue)."""

    work: float  # work units (reference-core seconds)
    name: str = "serial"

    def __post_init__(self) -> None:
        if self.work < 0:
            raise WorkloadError(f"serial phase {self.name!r} has negative work")


@hashed_once
@dataclass(frozen=True)
class LoopRegion:
    """One worksharing-loop parallel region.

    Parameters
    ----------
    n_iters:
        Loop trip count of the worksharing loop.
    iter_work:
        Mean work units per iteration.
    pattern, imbalance:
        Iteration-cost profile (see :class:`LoadPattern`).
    mem_intensity:
        Fraction of the region's time that is memory traffic (0..1); that
        fraction is exposed to bandwidth/locality effects.
    bw_per_thread_gbps:
        Bandwidth one full-speed thread demands during its memory fraction.
    random_access:
        True for pointer-chasing/table-lookup access (latency sensitive,
        migration hurts), False for streaming.
    n_reductions:
        Scalar reduction variables combined at region end.
    trips:
        How many times the region executes.
    gap_work:
        Serial work units between consecutive invocations.
    fixed_schedule, fixed_chunk:
        A ``schedule(...)`` clause compiled into the loop.  When set the
        region ignores ``OMP_SCHEDULE`` entirely — only loops without a
        clause follow the environment (XSBench, for example, hard-codes
        ``schedule(dynamic, 100)``).
    """

    name: str
    n_iters: int
    iter_work: float
    pattern: LoadPattern = LoadPattern.UNIFORM
    imbalance: float = 0.0
    mem_intensity: float = 0.0
    bw_per_thread_gbps: float = 0.0
    random_access: bool = False
    n_reductions: int = 0
    trips: int = 1
    gap_work: float = 0.0
    fixed_schedule: str | None = None
    fixed_chunk: int | None = None

    def __post_init__(self) -> None:
        if self.n_iters < 1:
            raise WorkloadError(f"loop {self.name!r}: n_iters must be >= 1")
        if self.iter_work <= 0:
            raise WorkloadError(f"loop {self.name!r}: iter_work must be > 0")
        if not 0.0 <= self.mem_intensity <= 1.0:
            raise WorkloadError(f"loop {self.name!r}: mem_intensity outside [0,1]")
        if self.imbalance < 0 or (
            self.pattern is LoadPattern.LINEAR and self.imbalance >= 2.0
        ):
            raise WorkloadError(
                f"loop {self.name!r}: imbalance {self.imbalance} out of range"
            )
        if self.n_reductions < 0 or self.trips < 1 or self.gap_work < 0:
            raise WorkloadError(f"loop {self.name!r}: negative counts")
        if self.bw_per_thread_gbps < 0:
            raise WorkloadError(f"loop {self.name!r}: negative bandwidth demand")
        if self.fixed_schedule is not None and self.fixed_schedule not in (
            "static",
            "dynamic",
            "guided",
        ):
            raise WorkloadError(
                f"loop {self.name!r}: bad fixed schedule {self.fixed_schedule!r}"
            )
        if self.fixed_chunk is not None and self.fixed_chunk < 1:
            raise WorkloadError(f"loop {self.name!r}: fixed_chunk must be >= 1")

    @property
    def total_work(self) -> float:
        """Work units of one invocation."""
        return self.n_iters * self.iter_work


@hashed_once
@dataclass(frozen=True)
class TaskRegion:
    """One task-parallel region described by its spawn tree.

    The tree has ``branching ** depth`` leaves doing ``leaf_work`` each and
    interior nodes doing ``node_work``; this is the shape of BOTS' recursive
    divide-and-conquer benchmarks.
    """

    name: str
    depth: int
    branching: int
    leaf_work: float
    node_work: float = 0.0
    #: Relative leaf-work dispersion (0 = perfectly regular tree).
    leaf_sigma: float = 0.0
    mem_intensity: float = 0.0
    bw_per_thread_gbps: float = 0.0
    random_access: bool = False
    trips: int = 1
    gap_work: float = 0.0

    def __post_init__(self) -> None:
        if self.depth < 0 or self.branching < 1:
            raise WorkloadError(f"task region {self.name!r}: bad tree shape")
        if self.leaf_work <= 0 or self.node_work < 0:
            raise WorkloadError(f"task region {self.name!r}: bad work amounts")
        if self.leaf_sigma < 0:
            raise WorkloadError(f"task region {self.name!r}: negative sigma")
        if not 0.0 <= self.mem_intensity <= 1.0:
            raise WorkloadError(f"task region {self.name!r}: mem_intensity range")
        if self.trips < 1 or self.gap_work < 0:
            raise WorkloadError(f"task region {self.name!r}: negative counts")

    @property
    def n_leaves(self) -> int:
        """Leaf count of the spawn tree."""
        return self.branching**self.depth

    @property
    def n_tasks(self) -> int:
        """Total tasks (interior + leaves)."""
        b = self.branching
        if b == 1:
            return self.depth + 1
        return (b ** (self.depth + 1) - 1) // (b - 1)

    @property
    def total_work(self) -> float:
        """Work units of one invocation."""
        interior = self.n_tasks - self.n_leaves
        return self.n_leaves * self.leaf_work + interior * self.node_work

    @property
    def critical_path_work(self) -> float:
        """Root-to-leaf work (the tasking parallelism floor)."""
        return self.depth * self.node_work + self.leaf_work


Phase = SerialPhase | LoopRegion | TaskRegion


@dataclass(frozen=True)
class Program:
    """A benchmark's runtime-visible structure."""

    name: str
    phases: tuple[Phase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"program {self.name!r} has no phases")

    @property
    def parallel_regions(self) -> list[LoopRegion | TaskRegion]:
        """The parallel phases in order."""
        return [p for p in self.phases if not isinstance(p, SerialPhase)]

    @property
    def total_work(self) -> float:
        """Aggregate work units, all trips included."""
        total = 0.0
        for p in self.phases:
            if isinstance(p, SerialPhase):
                total += p.work
            else:
                total += (p.total_work + p.gap_work) * p.trips
        return total

    @property
    def uses_tasks(self) -> bool:
        """Whether any phase is task-parallel."""
        return any(isinstance(p, TaskRegion) for p in self.phases)
