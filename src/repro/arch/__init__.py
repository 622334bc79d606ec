"""Machine models for the three CPU architectures of the study (Table I).

- :mod:`~repro.arch.topology` — :class:`MachineTopology`, the one
  description of a machine: core/socket/NUMA/LLC topology with place
  partitioning and a NUMA distance matrix, plus the machine's cost,
  noise and power tables,
- :mod:`~repro.arch.machines` — the Fujitsu A64FX, Intel Skylake 6148 and
  AMD Milan 7643 definitions plus a registry,
- :mod:`~repro.arch.costs` — the runtime cost table type,
- :mod:`~repro.arch.noise` — measurement-noise models reproducing the
  consistency contrast of Tables III/IV (A64FX stationary, X86 drifting
  and heavier-tailed),
- :mod:`~repro.arch.power` — the per-core/uncore power model type.
"""

from repro.arch.costs import RuntimeCosts
from repro.arch.noise import NoiseModel
from repro.arch.power import PowerModel
from repro.arch.topology import MachineTopology, Place, PlaceKind
from repro.arch.machines import (
    A64FX,
    MILAN,
    SKYLAKE,
    ALL_MACHINES,
    get_machine,
    machine_names,
    hardware_table,
)

__all__ = [
    "MachineTopology",
    "Place",
    "PlaceKind",
    "A64FX",
    "MILAN",
    "SKYLAKE",
    "ALL_MACHINES",
    "get_machine",
    "machine_names",
    "hardware_table",
    "NoiseModel",
    "PowerModel",
    "RuntimeCosts",
]
