"""Worksharing-loop schedule model (``OMP_SCHEDULE``).

Prices one loop-region invocation under static/dynamic/guided/auto
scheduling using closed-form approximations of libomp's chunking:

- ``static`` partitions the iteration space into ``T`` contiguous blocks;
  load imbalance falls entirely on the thread with the heaviest block,
- ``dynamic`` (default chunk 1) balances almost perfectly but pays a chunk
  grab per iteration against a shared counter that serializes under
  contention,
- ``guided`` hands out geometrically shrinking chunks — about
  ``T * log2(n/T + 2)`` grabs — balancing well at a fraction of dynamic's
  dispatch traffic,
- ``auto`` maps to static, which is what libomp does for the swept
  configurations.

The imbalance residues per :class:`~repro.runtime.program.LoadPattern` are
standard order-statistics approximations; tests validate them against
brute-force chunked simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.costs import RuntimeCosts
from repro.runtime.affinity import ThreadPlacement
from repro.runtime.costs import work_seconds
from repro.runtime.icv import ScheduleKind
from repro.runtime.program import LoadPattern, LoopRegion

__all__ = [
    "ScheduleOutcome",
    "effective_schedule",
    "static_balance_factor",
    "price_loop_schedule",
    "iterate_chunks",
]


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of pricing one loop invocation's compute portion."""

    #: Wall time of the slowest thread's compute share (seconds), before
    #: memory-system effects.
    compute_seconds: float
    #: Scheduling overhead on the critical path (seconds).
    overhead_seconds: float
    #: The balance multiplier applied to the ideal per-thread share.
    balance_factor: float
    #: Number of chunk dispatches performed.
    n_chunks: int


def static_balance_factor(
    pattern: LoadPattern, imbalance: float, n_iters: int, nthreads: int
) -> float:
    """Max-block over mean-block ratio for a contiguous static split.

    - UNIFORM: only the ceil-division remainder imbalances the blocks.
    - LINEAR with slope ``s`` (cost_i = c*(1 + s*(i/n - 1/2))): the last
      block's mean cost is ``1 + s/2 * (1 - 1/T)`` times the average.
    - RANDOM with relative std ``sigma``: the expected maximum of ``T``
      block sums exceeds the mean by ``sigma * sqrt(T/n) * sqrt(2 ln T)``.
    """
    T = min(nthreads, n_iters)
    if T <= 1:
        return 1.0
    base = math.ceil(n_iters / T) / (n_iters / T)
    if pattern is LoadPattern.UNIFORM:
        return base
    if pattern is LoadPattern.LINEAR:
        return base * (1.0 + 0.5 * imbalance * (1.0 - 1.0 / T))
    if pattern is LoadPattern.RANDOM:
        block = n_iters / T
        excess = imbalance / math.sqrt(block) * math.sqrt(2.0 * math.log(T))
        return base * (1.0 + excess)
    raise ValueError(f"unhandled pattern {pattern}")  # pragma: no cover


def static_chunked_balance_factor(
    pattern: LoadPattern,
    imbalance: float,
    n_iters: int,
    nthreads: int,
    chunk: int,
) -> float:
    """Balance of ``schedule(static, chunk)`` — round-robin chunks.

    Interleaving averages out smooth (LINEAR) profiles: the per-thread
    residue shrinks to roughly one chunk's worth of the ramp.  Random
    i.i.d. costs gain nothing from interleaving (same iteration counts
    per thread), so the contiguous bound applies.  Never worse than the
    contiguous split.
    """
    T = min(nthreads, n_iters)
    if T <= 1:
        return 1.0
    contiguous = static_balance_factor(pattern, imbalance, n_iters, nthreads)
    if pattern is LoadPattern.RANDOM:
        return contiguous
    if pattern is LoadPattern.LINEAR:
        interleaved = 1.0 + imbalance * min(chunk, n_iters) * T / n_iters
    else:
        interleaved = 1.0 + min(chunk, n_iters) * T / n_iters
    return min(contiguous, max(1.0, interleaved))


def iterate_chunks(
    kind: str, n_iters: int, nthreads: int, chunk: int | None = None
):
    """Yield each chunk's half-open iteration range ``(lo, hi)``.

    The executable specification of libomp's chunk-bound rules that the
    closed forms in this module approximate — kept out of the pricing hot
    path (it is O(n_chunks), the pricing is O(1)).  ``repro.check``'s
    iteration-coverage invariant asserts the ranges tile ``[0, n_iters)``
    exactly once and cross-validates chunk counts against the closed forms.

    - ``static`` (no chunk): ``min(T, n)`` contiguous blocks, remainder
      spread one extra iteration over the leading blocks,
    - ``static`` (chunked): round-robin fixed-size chunks,
    - ``dynamic``: fixed-size chunks handed out in order,
    - ``guided``: shrinking chunks ``max(floor, ceil(remaining / 2T))``.
    """
    if n_iters < 0:
        raise ValueError(f"negative iteration count {n_iters}")
    if nthreads < 1:
        raise ValueError(f"need >= 1 thread, got {nthreads}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    n = n_iters
    if n == 0:
        return
    T = nthreads
    if kind == "static" and chunk is None:
        blocks = min(T, n)
        base, extra = divmod(n, blocks)
        lo = 0
        for b in range(blocks):
            hi = lo + base + (1 if b < extra else 0)
            yield (lo, hi)
            lo = hi
    elif kind in ("static", "dynamic"):
        size = chunk if chunk is not None else 1
        for lo in range(0, n, size):
            yield (lo, min(lo + size, n))
    elif kind == "guided":
        floor = chunk if chunk is not None else 1
        lo = 0
        while lo < n:
            remaining = n - lo
            size = max(floor, -(-remaining // (2 * T)))
            hi = min(lo + size, n)
            yield (lo, hi)
            lo = hi
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")


def _guided_chunks(n_iters: int, nthreads: int) -> int:
    """Approximate number of guided chunks libomp dispatches."""
    return max(nthreads, int(math.ceil(nthreads * math.log2(n_iters / nthreads + 2))))


def _dynamic_balance_factor(
    pattern: LoadPattern,
    imbalance: float,
    n_iters: int,
    nthreads: int,
    chunk: int = 1,
) -> float:
    """Dynamic self-scheduling residue: at most one chunk of skew."""
    T = min(nthreads, n_iters)
    if T <= 1:
        return 1.0
    # The tail thread finishes at most one max-cost chunk late.
    if pattern is LoadPattern.RANDOM:
        max_iter_rel = 1.0 + 2.0 * imbalance
    elif pattern is LoadPattern.LINEAR:
        max_iter_rel = 1.0 + 0.5 * imbalance
    else:
        max_iter_rel = 1.0
    return 1.0 + max_iter_rel * min(chunk, n_iters) * T / n_iters


def _guided_balance_factor(
    pattern: LoadPattern, imbalance: float, n_iters: int, nthreads: int
) -> float:
    """Guided residue: the final (smallest) chunks smooth most imbalance."""
    T = min(nthreads, n_iters)
    if T <= 1:
        return 1.0
    if pattern is LoadPattern.UNIFORM:
        return 1.0 + T / n_iters
    # Residual skew is roughly the last chunk's share of the imbalance.
    return 1.0 + 0.25 * imbalance / math.sqrt(T) + T / n_iters


def effective_schedule(
    region: LoopRegion, kind: ScheduleKind, chunk: int | None
) -> tuple[ScheduleKind, int | None]:
    """The schedule ``region`` runs under ``OMP_SCHEDULE=kind[,chunk]``.

    A compiled-in ``schedule(...)`` clause overrides the environment, and
    ``auto`` runs as ``static`` (libomp's resolution for the swept
    configurations).  Idempotent: an effective schedule is its own.
    """
    if region.fixed_schedule is not None:
        kind = ScheduleKind(region.fixed_schedule)
        chunk = region.fixed_chunk
    if kind is ScheduleKind.AUTO:
        kind = ScheduleKind.STATIC
    return kind, chunk


def price_loop_schedule(
    region: LoopRegion,
    placement: ThreadPlacement,
    kind: ScheduleKind,
    chunk: int | None,
    costs: RuntimeCosts,
) -> ScheduleOutcome:
    """Price one invocation of ``region``'s compute on ``placement``'s
    team under ``OMP_SCHEDULE=kind[,chunk]``.

    Self-scheduling (dynamic/guided) runs at the team's
    :attr:`~ThreadPlacement.effective_parallelism`; static scheduling is
    bound by its :attr:`~ThreadPlacement.slowest_thread_factor` because
    shares are fixed up front.
    """
    T = placement.nthreads
    n = region.n_iters
    total_sec = work_seconds(region.total_work, placement.machine)
    kind, chunk = effective_schedule(region, kind, chunk)
    effective_parallelism = placement.effective_parallelism
    slowest_thread_factor = placement.slowest_thread_factor

    if T == 1:
        return ScheduleOutcome(total_sec, 0.0, 1.0, 1)

    ideal_share = total_sec / min(T, n)

    if kind is ScheduleKind.STATIC:
        if chunk is None:
            balance = static_balance_factor(
                region.pattern, region.imbalance, n, T
            )
            n_chunks = min(T, n)
        else:
            balance = static_chunked_balance_factor(
                region.pattern, region.imbalance, n, T, chunk
            )
            n_chunks = max(1, -(-n // chunk))
        compute = ideal_share * balance * slowest_thread_factor
        # Chunks are assigned round-robin up front: no dispatch traffic.
        return ScheduleOutcome(compute, 0.0, balance, n_chunks)

    dispatch_sec = costs.dispatch_ns * 1e-9
    # Self-scheduling runs at the team's aggregate rate, but no more
    # workers than iterations can ever be busy at once.
    p_eff = min(max(effective_parallelism, 1e-12), float(n))
    static_bal = static_balance_factor(region.pattern, region.imbalance, n, T)

    if kind is ScheduleKind.DYNAMIC:
        chunk = chunk or 1  # libomp default dynamic chunk is 1
        # Self-scheduling never balances worse than a static split.
        balance = min(
            _dynamic_balance_factor(region.pattern, region.imbalance, n, T, chunk),
            static_bal,
        )
        n_chunks = max(1, -(-n // chunk))
        compute = total_sec / p_eff * balance
        # Chunk grabs hit one shared counter: concurrent grabs serialize,
        # with mild line-bouncing growth in team size.
        serial_grab = dispatch_sec * (1.0 + 0.02 * T)
        parallel_overhead = n_chunks * dispatch_sec / min(T, n)
        contention_floor = n_chunks * serial_grab
        work_floor = compute + parallel_overhead
        if contention_floor > work_floor:
            # Dispatch-bound loop: the counter is the bottleneck.
            return ScheduleOutcome(
                compute, contention_floor - compute, balance, n_chunks
            )
        return ScheduleOutcome(compute, parallel_overhead, balance, n_chunks)

    if kind is ScheduleKind.GUIDED:
        balance = min(
            _guided_balance_factor(region.pattern, region.imbalance, n, T),
            static_bal,
        )
        # A chunk argument to guided sets the minimum chunk, reducing the
        # number of dispatches for large values.
        n_chunks = min(_guided_chunks(n, T), n)
        if chunk is not None and chunk > 1:
            n_chunks = min(n_chunks, max(T, -(-n // chunk)))
        compute = total_sec / p_eff * balance
        overhead = n_chunks * dispatch_sec / min(T, n)
        return ScheduleOutcome(compute, overhead, balance, n_chunks)

    raise ValueError(f"unhandled schedule {kind}")  # pragma: no cover
