"""Per-core and uncore power draw: one table per machine.

A :class:`PowerModel` is the socket-level power model of one machine,
carried as :attr:`~repro.arch.topology.MachineTopology.power`:

``P(t) = P_uncore + sum over cores of {P_active | P_spin | P_idle}``

The runtime's ``energy_profile`` integrates it over a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.arch.topology import MachineTopology

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """Per-core/uncore power draw for one machine (watts)."""

    #: A core executing application work.
    core_active_w: float
    #: A core spin-waiting (active wait policy): near full power.
    core_spin_w: float
    #: A core parked in a sleep state (passive waiting past blocktime).
    core_idle_w: float
    #: Package/uncore floor (memory controllers, fabric, caches).
    uncore_w: float

    def machine_power(
        self, machine: MachineTopology, active: int, spinning: int
    ) -> float:
        """Instantaneous watts with the given core occupancy."""
        idle = machine.n_cores - active - spinning
        if idle < 0:
            # Oversubscribed teams: cores can't be doubly powered.
            active = min(active, machine.n_cores)
            spinning = machine.n_cores - active
            idle = 0
        return (
            self.uncore_w
            + active * self.core_active_w
            + spinning * self.core_spin_w
            + idle * self.core_idle_w
        )
