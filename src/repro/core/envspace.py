"""The swept environment-variable space (paper Sec. III).

Defines, for each variable, the value set the paper explores — including
the per-architecture ``KMP_ALIGN_ALLOC`` domains (cache-line-dependent) and
the exclusions the paper documents (no ``threads``/``numa_domains`` places,
no ``serial`` library mode, three ``KMP_BLOCKTIME`` points).

Grid scales:

- ``"full"`` — the complete cartesian product (4,608 configs on A64FX,
  9,216 on the x86 machines), the paper's exhaustive exploration,
- ``"medium"`` — a deterministic stratified subsample of the full product
  plus all one-factor-at-a-time (OFAT) points; a few hundred configs,
- ``"small"`` — OFAT plus a handful of random points; tens of configs,
  meant for tests and quick iteration.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from repro.arch.topology import MachineTopology
from repro.errors import ConfigError, UnknownVariable
from repro.runtime.icv import UNSET, EnvConfig

__all__ = ["VariableSpec", "SWEPT_VARIABLES", "EnvSpace"]


@dataclass(frozen=True)
class VariableSpec:
    """One swept environment variable."""

    env_name: str
    #: Corresponding :class:`~repro.runtime.icv.EnvConfig` field.
    field: str
    #: Values swept on machines with 64-byte cache lines (x86).
    values_x86: tuple
    #: Values swept on machines with 256-byte lines (A64FX); None = same.
    values_largeline: tuple | None = None

    def values(self, machine: MachineTopology) -> tuple:
        """The sweep domain on ``machine``."""
        if self.values_largeline is not None and machine.cache_line_bytes >= 256:
            return self.values_largeline
        return self.values_x86

    def default(self) -> object:
        """The unset/default sweep value for this variable."""
        return None if self.field == "align_alloc" else UNSET


#: The seven swept variables, in the paper's presentation order.
#: ``OMP_NUM_THREADS`` is handled separately (per-setting, Sec. IV-B).
SWEPT_VARIABLES: tuple[VariableSpec, ...] = (
    # Value order is deliberately monotone in "hardware spread" so the
    # paper's naive ordinal encoding can express each variable's effect:
    # master (worst) ... spread (widest) for binding; unbound ... widest
    # place for places.
    VariableSpec(
        "OMP_PLACES",
        "places",
        (UNSET, "cores", "ll_caches", "sockets"),
    ),
    VariableSpec(
        "OMP_PROC_BIND",
        "proc_bind",
        ("master", "false", UNSET, "close", "true", "spread"),
    ),
    VariableSpec(
        "OMP_SCHEDULE",
        "schedule",
        (UNSET, "dynamic", "guided", "auto"),
        # 'static' is the default, so UNSET covers it; sweeping the literal
        # value would duplicate a grid point.
    ),
    VariableSpec("KMP_LIBRARY", "library", (UNSET, "turnaround")),
    VariableSpec("KMP_BLOCKTIME", "blocktime", (UNSET, "0", "infinite")),
    VariableSpec(
        "KMP_FORCE_REDUCTION",
        "force_reduction",
        (UNSET, "tree", "critical", "atomic"),
    ),
    VariableSpec(
        "KMP_ALIGN_ALLOC",
        "align_alloc",
        (None, 128, 256, 512),
        values_largeline=(None, 512),
    ),
)


def extended_variables() -> tuple[VariableSpec, ...]:
    """The sweep variables with ``OMP_PLACES=numa_domains`` included.

    The paper omits ``numa_domains`` because it requires hwloc on the
    real runtime and defers it to future work; our topology model knows
    NUMA domains natively, so the extension space simply adds the value.
    """
    out = []
    for var in SWEPT_VARIABLES:
        if var.env_name == "OMP_PLACES":
            out.append(
                VariableSpec(
                    var.env_name,
                    var.field,
                    var.values_x86 + ("numa_domains",),
                )
            )
        else:
            out.append(var)
    return tuple(out)


def wait_policy_variables() -> tuple[VariableSpec, ...]:
    """Replace KMP_LIBRARY + KMP_BLOCKTIME with one OMP_WAIT_POLICY knob.

    Sec. V-3: since ``OMP_WAIT_POLICY`` is derived from both ``KMP_*``
    variables, "one may choose to optionally only tune this variable
    instead".  ``active`` maps onto an infinite blocktime, ``passive``
    onto blocktime 0, unset keeps the defaults — a 3-value knob replacing
    a 2x3 sub-grid.
    """
    out = []
    for var in SWEPT_VARIABLES:
        if var.env_name == "KMP_LIBRARY":
            continue
        if var.env_name == "KMP_BLOCKTIME":
            out.append(
                VariableSpec(
                    "OMP_WAIT_POLICY",
                    "blocktime",
                    (UNSET, "infinite", "0"),
                )
            )
        else:
            out.append(var)
    return tuple(out)


def chunked_schedule_variables() -> tuple[VariableSpec, ...]:
    """The sweep variables with chunk sizes added to ``OMP_SCHEDULE``.

    Sec. III-3: the paper considers all schedule kinds "but no chunk
    sizes".  This extension sweeps representative chunks per kind, which
    rescues ``dynamic`` on fine-grained loops (the dispatch-bound tail of
    the full-grid violins).
    """
    out = []
    for var in SWEPT_VARIABLES:
        if var.env_name == "OMP_SCHEDULE":
            out.append(
                VariableSpec(
                    var.env_name,
                    var.field,
                    (
                        UNSET,
                        "static,16",
                        "dynamic",
                        "dynamic,64",
                        "dynamic,1024",
                        "guided",
                        "guided,64",
                        "auto",
                    ),
                )
            )
        else:
            out.append(var)
    return tuple(out)


class EnvSpace:
    """Enumerable configuration space over :data:`SWEPT_VARIABLES`."""

    SCALES = ("full", "medium", "small", "twofactor")

    def __init__(self, variables: Sequence[VariableSpec] = SWEPT_VARIABLES):
        if not variables:
            raise ConfigError("EnvSpace needs at least one variable")
        names = [v.env_name for v in variables]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate variables in space: {names}")
        self.variables = tuple(variables)

    def variable(self, env_name: str) -> VariableSpec:
        """Look up a variable by its environment name."""
        for v in self.variables:
            if v.env_name == env_name:
                return v
        raise UnknownVariable(
            f"{env_name!r} not in space; have {[v.env_name for v in self.variables]}"
        )

    def size(self, machine: MachineTopology) -> int:
        """Full-grid cardinality on ``machine``."""
        n = 1
        for v in self.variables:
            n *= len(v.values(machine))
        return n

    def default_config(self) -> EnvConfig:
        """The all-unset configuration."""
        return EnvConfig()

    # ------------------------------------------------------------------
    def full_grid(self, machine: MachineTopology) -> Iterator[EnvConfig]:
        """The complete cartesian product, deterministic order."""
        domains = [v.values(machine) for v in self.variables]
        fields = [v.field for v in self.variables]
        for combo in product(*domains):
            yield EnvConfig(**dict(zip(fields, combo)))

    def ofat_grid(self, machine: MachineTopology) -> list[EnvConfig]:
        """One-factor-at-a-time points: default plus each single change."""
        out = [self.default_config()]
        for v in self.variables:
            for value in v.values(machine):
                if value == v.default():
                    continue
                out.append(replace(self.default_config(), **{v.field: value}))
        return out

    def two_factor_grid(self, machine: MachineTopology) -> list[EnvConfig]:
        """OFAT plus every pair of simultaneous single-variable deviations.

        The minimal design for estimating pairwise interactions: marginal
        effects come from the OFAT points, joint effects from the pair
        points, everything else held at default.
        """
        out = self.ofat_grid(machine)
        n_vars = len(self.variables)
        for i in range(n_vars):
            var_a = self.variables[i]
            for j in range(i + 1, n_vars):
                var_b = self.variables[j]
                for a_val in var_a.values(machine):
                    if a_val == var_a.default():
                        continue
                    for b_val in var_b.values(machine):
                        if b_val == var_b.default():
                            continue
                        out.append(
                            replace(
                                self.default_config(),
                                **{var_a.field: a_val, var_b.field: b_val},
                            )
                        )
        return out

    def random_grid(
        self, machine: MachineTopology, n: int, seed: int = 0
    ) -> list[EnvConfig]:
        """``n`` random grid points (uniform over the full product)."""
        rng = np.random.default_rng(seed)
        domains = [v.values(machine) for v in self.variables]
        fields = [v.field for v in self.variables]
        out = []
        for _ in range(n):
            combo = {
                f: d[int(rng.integers(len(d)))] for f, d in zip(fields, domains)
            }
            out.append(EnvConfig(**combo))
        return out

    @classmethod
    def check_scale(cls, scale: str) -> None:
        """Raise :class:`ConfigError` unless ``scale`` is a grid scale."""
        if scale not in cls.SCALES:
            raise ConfigError(f"unknown scale {scale!r}; have {cls.SCALES}")

    def grid(
        self, machine: MachineTopology, scale: str = "full", seed: int = 0
    ) -> list[EnvConfig]:
        """Deduplicated configuration list at the requested scale."""
        self.check_scale(scale)
        if scale == "full":
            configs = list(self.full_grid(machine))
        elif scale == "twofactor":
            configs = self.two_factor_grid(machine)
        elif scale == "medium":
            configs = self.ofat_grid(machine) + self.random_grid(
                machine, 220, seed=seed
            )
        else:
            configs = self.ofat_grid(machine) + self.random_grid(
                machine, 28, seed=seed
            )
        seen: set[tuple] = set()
        unique: list[EnvConfig] = []
        for c in configs:
            key = c.key()
            if key not in seen:
                seen.add(key)
                unique.append(c)
        return unique
