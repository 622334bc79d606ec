"""Thread-count recommendation.

The paper's conclusion punts on thread counts: "Given the importance of
thread counts, we direct the user to other studies that can recommend
thread counts given an application and architecture."  With the runtime
model, that recommendation is a cheap computation: evaluate the candidate
counts and explain the winner via the model's own structure (bandwidth
saturation point vs compute scaling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.topology import MachineTopology
from repro.errors import ConfigError
from repro.runtime.executor import RuntimeExecutor
from repro.runtime.icv import EnvConfig
from repro.runtime.program import LoopRegion, Program

__all__ = ["ThreadRecommendation", "recommend_threads"]


@dataclass(frozen=True)
class ThreadRecommendation:
    """Recommended thread count with the model's explanation."""

    program: str
    arch: str
    best_threads: int
    best_seconds: float
    full_machine_seconds: float
    #: (threads, seconds) for every evaluated candidate.
    curve: tuple[tuple[int, float], ...]
    #: Threads beyond which the dominant region saturates memory
    #: bandwidth (None = never within the machine).
    bandwidth_saturation_threads: int | None

    @property
    def speedup_over_full_machine(self) -> float:
        """What the recommendation buys vs running on every core."""
        return self.full_machine_seconds / self.best_seconds

    @property
    def reason(self) -> str:
        """One-line model explanation of the recommendation."""
        if (
            self.bandwidth_saturation_threads is not None
            and self.best_threads <= 1.5 * self.bandwidth_saturation_threads
        ):
            return (
                f"memory-bandwidth bound: the dominant region saturates at "
                f"~{self.bandwidth_saturation_threads} threads"
            )
        return "compute bound: scales to the full machine"


def _saturation_threads(
    program: Program, machine: MachineTopology
) -> int | None:
    """Threads at which the heaviest loop region saturates its bandwidth."""
    dominant: LoopRegion | None = None
    dominant_work = 0.0
    for phase in program.parallel_regions:
        if isinstance(phase, LoopRegion):
            work = phase.total_work * phase.trips
            if work > dominant_work:
                dominant, dominant_work = phase, work
    if dominant is None or dominant.bw_per_thread_gbps <= 0:
        return None
    avail = machine.costs.unbound_bw_efficiency * machine.total_mem_bw_gbps
    saturation = int(avail / dominant.bw_per_thread_gbps)
    return saturation if saturation < machine.n_cores else None


def recommend_threads(
    program: Program,
    machine: MachineTopology,
    config: EnvConfig | None = None,
    candidates: tuple[int, ...] | None = None,
) -> ThreadRecommendation:
    """Evaluate candidate thread counts and recommend the fastest.

    Candidates default to eighth-steps of the machine (the paper's future
    work asks for "more thread counts" than its quarter-steps).
    """
    config = config or EnvConfig()
    if candidates is None:
        candidates = tuple(
            sorted(
                {
                    max(1, machine.n_cores * k // 8)
                    for k in range(1, 9)
                }
            )
        )
    if not candidates or any(t < 1 for t in candidates):
        raise ConfigError("candidates must be positive thread counts")

    curve = []
    for threads in candidates:
        runtime = RuntimeExecutor(
            machine, config.with_threads(threads)
        ).execute(program)
        curve.append((threads, runtime))
    best_threads, best_seconds = min(curve, key=lambda tr: tr[1])
    full = RuntimeExecutor(
        machine, config.with_threads(machine.n_cores)
    ).execute(program)
    return ThreadRecommendation(
        program=program.name,
        arch=machine.name,
        best_threads=best_threads,
        best_seconds=best_seconds,
        full_machine_seconds=full,
        curve=tuple(curve),
        bandwidth_saturation_threads=_saturation_threads(program, machine),
    )
