"""Circuit breakers per executor backend, and the degradation ladder.

A long-lived tuner must survive a broken backend: if the simulated node
fleet starts losing nodes on every sweep, hammering it with more sweeps
converts one infrastructure fault into every client's problem.  The
classic answer is a circuit breaker per backend:

- **closed** — requests flow; consecutive failures are counted, and at
  ``failure_threshold`` the breaker *opens*,
- **open** — the backend is not dispatched to at all for
  ``cooldown_s``; after the cooldown the breaker moves to *half-open*,
- **half-open** — up to ``probe_budget`` trial dispatches are allowed
  through; the first success closes the breaker, a failure (or running
  out of probes without a success) re-opens it for another cooldown.

State transitions are driven by an injected ``clock`` (tests use a fake
one), and every decision is a pure function of the recorded
success/failure sequence plus the clock — no randomness, so breaker
behavior in the chaos scenarios is exactly replayable.

:class:`BackendLadder` stacks breakers into the degradation path the
daemon serves through: a fleet rung (``nodes`` or ``pool``), then
``serial``.  The two fleets run the same process body and frame
transport, so they fail together and one never backs up the other.
``serial`` is the floor — in-process execution has no fleet to lose —
so the ladder always yields a rung, and a response served below the
requested rung carries a ``degraded`` marker.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from repro.errors import ConfigError
from repro.serve.limits import wall_clock

__all__ = ["BREAKER_STATES", "CircuitBreaker", "BackendLadder", "LADDERS"]

#: The breaker's three states, in degradation order.
BREAKER_STATES = ("closed", "open", "half-open")

#: Requested backend -> the rungs tried, best first.  ``auto`` resolves
#: like the sweep layer's auto (pool when parallelism helps), so its
#: ladder matches pool's.  ``nodes`` falls straight to ``serial``: the
#: pool shares its failure surface.
LADDERS = {
    "nodes": ("nodes", "serial"),
    "pool": ("pool", "serial"),
    "auto": ("pool", "serial"),
    "serial": ("serial",),
}


class CircuitBreaker:
    """One backend's breaker (see module docstring for the protocol)."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        probe_budget: int = 2,
        clock: Callable[[], float] = wall_clock,
    ):
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ConfigError(f"cooldown_s must be >= 0, got {cooldown_s}")
        if probe_budget < 1:
            raise ConfigError(
                f"probe_budget must be >= 1, got {probe_budget}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_budget = probe_budget
        self.clock = clock
        self._lock = threading.RLock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_left = 0
        #: Lifetime counters (health endpoint).
        self.n_failures = 0
        self.n_successes = 0
        self.n_opens = 0

    # -- state machine ---------------------------------------------------
    def _tick(self, now: float) -> None:
        """Advance time-driven transitions (open → half-open)."""
        if (self._state == "open"
                and now - self._opened_at >= self.cooldown_s):
            self._state = "half-open"
            self._probes_left = self.probe_budget

    def _open(self, now: float) -> None:
        self._state = "open"
        self._opened_at = now
        self._consecutive_failures = 0
        self._probes_left = 0
        self.n_opens += 1

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open if cooled down."""
        with self._lock:
            self._tick(self.clock())
            return self._state

    def allow(self) -> bool:
        """Whether one dispatch may go to this backend right now.

        In half-open state each ``allow()`` consumes one probe; when the
        budget is spent without a success having closed the breaker, it
        re-opens for another cooldown.
        """
        with self._lock:
            now = self.clock()
            self._tick(now)
            if self._state == "closed":
                return True
            if self._state == "half-open":
                if self._probes_left > 0:
                    self._probes_left -= 1
                    return True
                self._open(now)
            return False

    def record_success(self) -> None:
        """A dispatch to this backend completed; half-open closes."""
        with self._lock:
            self._tick(self.clock())
            self.n_successes += 1
            self._consecutive_failures = 0
            if self._state == "half-open":
                self._state = "closed"

    def record_failure(self) -> None:
        """A dispatch failed (PoisonBatch, NodeLost, ResilienceError)."""
        with self._lock:
            now = self.clock()
            self._tick(now)
            self.n_failures += 1
            if self._state == "half-open":
                self._open(now)
                return
            if self._state == "closed":
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._open(now)

    def describe(self) -> dict:
        """JSON-ready breaker snapshot."""
        with self._lock:
            self._tick(self.clock())
            return {
                "backend": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failures": self.n_failures,
                "successes": self.n_successes,
                "opens": self.n_opens,
                "probes_left": self._probes_left,
            }


class BackendLadder:
    """Breakers for every backend plus the degradation path between them.

    :meth:`rungs_for` yields the dispatchable rungs for a requested
    backend, best first, skipping rungs whose breaker refuses — except
    the final rung, which is always yielded (``serial`` cannot be
    circuit-broken away; a tuner that answers slowly beats one that
    answers 503).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        probe_budget: int = 2,
        clock: Callable[[], float] = wall_clock,
    ):
        self.breakers = {
            name: CircuitBreaker(
                name,
                failure_threshold=failure_threshold,
                cooldown_s=cooldown_s,
                probe_budget=probe_budget,
                clock=clock,
            )
            for name in ("nodes", "pool", "serial")
        }

    def ladder_for(self, requested: str) -> tuple[str, ...]:
        """The full rung sequence for a requested backend."""
        try:
            return LADDERS[requested]
        except KeyError:
            raise ConfigError(
                f"unknown backend {requested!r}; have {sorted(LADDERS)}"
            ) from None

    def rungs_for(self, requested: str) -> list[str]:
        """Dispatchable rungs, best first (the floor always included)."""
        ladder = self.ladder_for(requested)
        rungs = [
            name for name in ladder[:-1] if self.breakers[name].allow()
        ]
        rungs.append(ladder[-1])
        return rungs

    def record(self, backend: str, ok: bool) -> None:
        """Book one dispatch outcome on the backend's breaker."""
        breaker = self.breakers.get(backend)
        if breaker is None:
            raise ConfigError(f"unknown backend {backend!r}")
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def describe(self) -> list[dict]:
        """JSON-ready snapshot of every breaker, in ladder order."""
        return [
            self.breakers[name].describe()
            for name in ("nodes", "pool", "serial")
        ]
