"""Synchronization primitives over the DES kernel.

These model the runtime-internal primitives libomp builds on: a mutex (for
``critical`` reductions and dynamic-schedule chunk grabs) and a cyclic
barrier (fork/join and tree reductions).

All are FIFO-fair and deterministic.  When the owning engine carries an
observer, locks and barriers emit ``lock_acquire`` / ``lock_release`` /
``barrier_arrive`` / ``barrier_release`` notifications (see
:meth:`repro.desim.engine.Engine.notify`); the sanitizer's happens-before
tracker derives its release→acquire and all-arrivals→release edges from
exactly these.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator

from repro.desim.engine import Engine, Event, Timeout
from repro.errors import SimulationError

__all__ = ["Lock", "Barrier"]


class Lock:
    """FIFO mutex.

    Usage from a process::

        yield from lock.acquire()
        ...critical section...
        lock.release()
    """

    def __init__(
        self, engine: Engine, hold_overhead: float = 0.0, name: str = "lock"
    ):
        self.engine = engine
        self.hold_overhead = hold_overhead
        self.name = name
        self._held = False
        self._queue: deque[Event] = deque()
        self.acquisitions = 0
        self.contentions = 0

    @property
    def held(self) -> bool:
        """Whether the lock is currently held."""
        return self._held

    def acquire(self) -> Generator:
        """Generator to ``yield from``; returns once the lock is held."""
        if not self._held:
            self._held = True
            self.acquisitions += 1
            if self.engine._observer is not None:
                self.engine.notify("lock_acquire", lock=self)
            if self.hold_overhead:
                yield Timeout(self.hold_overhead)
            return
        self.contentions += 1
        gate = self.engine.event()
        self._queue.append(gate)
        yield gate
        self.acquisitions += 1
        if self.engine._observer is not None:
            self.engine.notify("lock_acquire", lock=self)
        if self.hold_overhead:
            yield Timeout(self.hold_overhead)

    def release(self) -> None:
        """Release; hands the lock to the oldest waiter if any."""
        if not self._held:
            raise SimulationError("release of an unheld lock")
        if self.engine._observer is not None:
            # Emitted before the hand-off wake so the happens-before edge
            # (release orders before the next acquire) is established with
            # the releasing process still current.
            self.engine.notify("lock_release", lock=self)
        if self._queue:
            # Ownership transfers directly: stays held, next waiter wakes.
            self._queue.popleft().succeed()
        else:
            self._held = False


class Barrier:
    """Cyclic barrier for a fixed party count.

    Tracks how many times it cycled (``generations``).  The last arriver
    releases everyone at the same timestamp, matching an idealized
    centralized barrier; per-thread arrival costs are the caller's job.
    """

    def __init__(self, engine: Engine, parties: int, name: str = "barrier"):
        if parties < 1:
            raise SimulationError(f"barrier parties must be >= 1, got {parties}")
        self.engine = engine
        self.parties = parties
        self.name = name
        self._arrived = 0
        self._gate = engine.event()
        self.generations = 0

    def wait(self) -> Generator:
        """Generator to ``yield from``; returns when all parties arrived."""
        self._arrived += 1
        if self.engine._observer is not None:
            self.engine.notify(
                "barrier_arrive", barrier=self, arrived=self._arrived
            )
        if self._arrived == self.parties:
            self._arrived = 0
            self.generations += 1
            gate, self._gate = self._gate, self.engine.event()
            if self.engine._observer is not None:
                # The release joins every arrival's history: emitted before
                # the gate wake so the last arriver carries the merged
                # clock into the event_wake edge.
                self.engine.notify(
                    "barrier_release", barrier=self,
                    generation=self.generations,
                )
            gate.succeed()
            return
            yield  # pragma: no cover - makes this a generator
        yield self._gate
