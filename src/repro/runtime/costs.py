"""Work units to seconds.

The machine's primitive-operation costs are its
:attr:`~repro.arch.topology.MachineTopology.costs` table
(:class:`~repro.arch.costs.RuntimeCosts`); this module converts the
workloads' abstract work into time on one of its cores.
"""

from __future__ import annotations

from repro.arch.topology import MachineTopology

__all__ = ["work_seconds"]


def work_seconds(work_units: float, machine: MachineTopology) -> float:
    """Convert abstract work units to seconds on one core of ``machine``.

    One work unit is defined as one second of execution on a reference
    core (``core_perf == 1.0``) at 1 GHz; real cores scale by
    ``core_perf * clock_ghz``.
    """
    return work_units / (machine.core_perf * machine.clock_ghz)
