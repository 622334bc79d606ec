"""Power and energy model — the energy-tuning extension.

Much of the paper's related work (Nornir, OpenMPE, EDP throttling
studies) tunes the same knobs for *energy* rather than runtime.  This
module integrates each machine's socket-level power model
(:class:`~repro.arch.power.PowerModel`, carried as ``machine.power``) over
a run to reproduce that trade-off on our simulated machines:

``P(t) = P_uncore + sum over cores of {P_active | P_spin | P_idle}``

The interesting interaction with the swept variables: active waiting
(``KMP_LIBRARY=turnaround`` / ``KMP_BLOCKTIME=infinite``) keeps worker
cores at spin power through serial gaps and barriers — often *faster but
hungrier* — while passive waiting drops them to idle power at the cost of
wake latency.  :func:`energy_profile` exposes runtime, energy and EDP so
tuners can optimize any of the three.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.topology import MachineTopology
from repro.runtime.executor import RuntimeExecutor
from repro.runtime.icv import EnvConfig, WaitPolicy
from repro.runtime.program import Program, SerialPhase

__all__ = ["EnergyProfile", "energy_profile"]


@dataclass(frozen=True)
class EnergyProfile:
    """Runtime/energy/EDP of one run."""

    runtime_s: float
    energy_j: float

    @property
    def avg_power_w(self) -> float:
        """Mean power over the run."""
        return self.energy_j / self.runtime_s if self.runtime_s else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s) — the related work's objective."""
        return self.energy_j * self.runtime_s


def energy_profile(
    program: Program,
    machine: MachineTopology,
    config: EnvConfig,
    fidelity: str = "analytic",
) -> EnergyProfile:
    """Runtime and energy of one run under the power model.

    Occupancy per phase: parallel phases run the team's threads at active
    power (capped at core count); serial phases run the master active
    while the team's workers spin (active wait policy) or idle (passive —
    blocktime-long spin residues are folded into the spin estimate).
    """
    executor = RuntimeExecutor(machine, config, fidelity=fidelity)
    power = machine.power
    icvs = executor.icvs
    team = min(icvs.nthreads, machine.n_cores)
    active_wait = icvs.wait_policy is WaitPolicy.ACTIVE

    energy = 0.0
    total = 0.0
    for cost, phase in zip(executor.phase_costs(program), program.phases):
        total += cost.seconds
        if isinstance(phase, SerialPhase) or cost.kind == "serial":
            spinning = (team - 1) if active_wait else 0
            watts = power.machine_power(machine, active=1, spinning=spinning)
        else:
            # Parallel body; serial gaps inside the trips are a small
            # fraction and are treated at team power.
            watts = power.machine_power(machine, active=team, spinning=0)
        energy += cost.seconds * watts
    return EnergyProfile(runtime_s=total, energy_j=energy)
