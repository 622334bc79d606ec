"""Whole-program execution: Program x machine x EnvConfig -> runtime.

:func:`execute` returns the *modeled* (noise-free) runtime;
:func:`observe` layers the architecture's measurement-noise model on top,
keyed by the full sample identity so sweeps are reproducible in any
execution order (the property the paper's batching strategy protects).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.arch.noise import (
    encode_parts,
    noisy_runtimes,
    sample_seed,
    sample_seeds_encoded,
)
from repro.arch.topology import MachineTopology
from repro.errors import SimulationError
from repro.runtime.affinity import ThreadPlacement
from repro.runtime.barrier import (
    fork_seconds,
    serial_gap_seconds,
    workers_asleep,
)
from repro.runtime.costs import work_seconds
from repro.runtime.icv import EnvConfig, ResolvedICVs, resolve_icvs
from repro.runtime.kernel import ComponentMemo, RegionEngine
from repro.runtime.program import LoopRegion, Program, SerialPhase, TaskRegion

__all__ = [
    "RuntimeExecutor",
    "apply_measurement_noise",
    "execute",
    "measurement_noise",
    "measurement_noise_factors",
    "noise_seed_suffixes",
    "observe",
]


@dataclass(frozen=True)
class _PhaseCost:
    """Per-phase wall-time breakdown (for traces and ablation studies)."""

    name: str
    kind: str
    seconds: float
    trips: int


_PHASE_KINDS = {SerialPhase: "serial", LoopRegion: "loop", TaskRegion: "task"}


class RuntimeExecutor:
    """Reusable executor for one (machine, config) pair.

    Caches ICV resolution, placement and the region engine so sweeping many
    programs under one configuration costs a handful of scalar evaluations
    per region.  ``icvs``, when the caller already resolved ``config`` on
    ``machine`` (the sweep's grouping does), is used instead of resolving
    it again.  ``memo``, if given, is a
    :class:`~repro.runtime.kernel.ComponentMemo` the region engine shares
    with other executors on the same machine (the sweep's class plans
    do).  The machine carries its cost table, so pricing under another
    table means passing another machine (``dataclasses.replace(machine,
    costs=...)``, as the metamorphic cost-scaling relation does).

    The executor's ICVs, placement and cost table never change, so it
    also memoizes the serial gap before each region and the fork after
    it, keyed on the gap's work alone (a sweep reuses one executor for
    every program of its class).
    """

    def __init__(
        self,
        machine: MachineTopology,
        config: EnvConfig,
        fidelity: str = "analytic",
        *,
        icvs: ResolvedICVs | None = None,
        memo: ComponentMemo | None = None,
    ):
        if fidelity not in ("analytic", "des"):
            raise SimulationError(f"unknown fidelity {fidelity!r}")
        self.machine = machine
        self.config = config
        self.fidelity = fidelity
        self.icvs: ResolvedICVs = (
            icvs if icvs is not None else resolve_icvs(config, machine)
        )
        self.engine = RegionEngine(machine, self.icvs, memo=memo)
        self.placement: ThreadPlacement = self.engine.placement
        self._gap_memo: dict[float, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    def phase_costs(self, program: Program, seed: int = 0) -> list[_PhaseCost]:
        """Per-phase wall times (one entry per phase, trips folded in)."""
        return [
            _PhaseCost(phase.name, _PHASE_KINDS[type(phase)], seconds,
                       getattr(phase, "trips", 1))
            for phase, seconds in zip(program.phases,
                                      self._phase_seconds(program, seed))
        ]

    def execute(self, program: Program, seed: int = 0) -> float:
        """Modeled (noise-free) wall time of ``program`` in seconds."""
        return sum(self._phase_seconds(program, seed))

    def _phase_seconds(self, program: Program, seed: int) -> list[float]:
        """Every phase's wall time, trips folded in, in phase order."""
        gaps = self._gap_memo
        out = []
        for i, phase in enumerate(program.phases):
            if isinstance(phase, SerialPhase):
                out.append(serial_gap_seconds(
                    self.icvs, self.placement,
                    work_seconds(phase.work, self.machine),
                ))
                continue

            gap_sec, fork = (gaps.get(phase.gap_work)
                             or self._gap_fork(phase.gap_work))
            if isinstance(phase, LoopRegion):
                body = self.engine.loop_region_seconds(phase)
            elif isinstance(phase, TaskRegion):
                # Only a DES body draws from the phase's seed.
                body = self.engine.task_region_seconds(
                    phase, fidelity=self.fidelity,
                    seed=sample_seed(seed, i) if self.fidelity == "des" else 0,
                )
            else:  # pragma: no cover - exhaustive over Phase union
                raise SimulationError(f"unknown phase type {type(phase)!r}")
            out.append((gap_sec + fork + body) * phase.trips)
        return out

    def _gap_fork(self, gap_work: float) -> tuple[float, float]:
        """Wall time of the serial gap of ``gap_work`` units before a
        region and of the fork that ends it (memoized on ``gap_work``)."""
        gap_nominal = work_seconds(gap_work, self.machine)
        sleeping = workers_asleep(self.icvs, gap_nominal)
        pair = self._gap_memo[gap_work] = (
            serial_gap_seconds(self.icvs, self.placement, gap_nominal),
            fork_seconds(self.icvs, self.machine.costs, sleeping),
        )
        return pair

    def observe(
        self, program: Program, run_index: int = 0, seed: int = 0
    ) -> float:
        """One noisy runtime observation, as a measurement would see it.

        The *modeled* runtime is a function of the resolved ICVs alone, so
        env-var spellings with equal execution signatures share it — that
        determinism is what lets the sweep evaluate the model once per
        ICV-equivalence class.  The noise stream, by contrast, is keyed by
        the configuration spelling: every grid point is a separate
        measurement with its own draw, as it would be on a real machine.
        """
        return apply_measurement_noise(
            self.machine, program, self.config,
            self.execute(program, seed), run_index, seed,
        )


def apply_measurement_noise(
    machine: MachineTopology,
    program: Program,
    config: EnvConfig,
    true_runtime: float,
    run_index: int = 0,
    seed: int = 0,
) -> float:
    """Turn a modeled runtime into one noisy observation of ``config``.

    One draw of :func:`measurement_noise`, which states the seed contract.
    """
    return measurement_noise(
        machine, program, (config,), (true_runtime,), (run_index,), seed
    )[0][0]


def measurement_noise(
    machine: MachineTopology,
    program: Program,
    configs: Sequence[EnvConfig],
    true_runtimes: Sequence[float],
    run_indices: Sequence[int],
    seed: int = 0,
) -> list[tuple[float, ...]]:
    """Noisy observations of every config: for each ``configs[i]``, one
    observation of ``true_runtimes[i]`` per run index in ``run_indices``.

    The seed contract of every observation in the simulator: the noise
    stream is keyed by ``(machine, program, config spelling, seed)`` and
    the run index.  The pruned sweep relies on this split — it evaluates
    the model once per ICV-equivalence class and applies each member's
    own noise stream to the shared true runtime, which is bit-identical
    to exhaustive execution because the model is deterministic in the
    resolved ICVs.  The draws are made by
    :func:`measurement_noise_factors`.
    """
    if len(true_runtimes) != len(configs):
        raise ValueError(
            f"{len(configs)} configs but {len(true_runtimes)} true runtimes"
        )
    observed = noisy_runtimes(
        np.repeat(np.asarray(true_runtimes, dtype=np.float64),
                  len(run_indices)),
        *measurement_noise_factors(
            machine, ((program, noise_seed_suffixes(configs, seed)),),
            run_indices,
        ),
    )
    draws = iter(observed.tolist())
    return [tuple(islice(draws, len(run_indices))) for _ in configs]


def noise_seed_suffixes(
    configs: Sequence[EnvConfig], seed: int = 0
) -> list[bytes]:
    """Each config's part of its observations' noise seed,
    ``(config.key(), seed)``, encoded once for
    :func:`measurement_noise_factors` (a sweep's class plan encodes its
    grid once for every batch)."""
    return [encode_parts((config.key(), seed)) for config in configs]


def measurement_noise_factors(
    machine: MachineTopology,
    draws: Sequence[tuple[Program, Sequence[bytes]]],
    run_indices: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(drift, jitter)`` noise factors of several programs' draws
    in one call, config-major: for each ``(program, suffixes)`` in
    ``draws``, one draw per config (given by its
    :func:`noise_seed_suffixes`) and run index, in order.

    Each ``(machine, program)`` seed prefix is hashed once, and each
    config's seed costs one copy of that hash state, one update and one
    digest.  A sweep draws a window of batches at once this way;
    :func:`~repro.arch.noise.noisy_runtimes` turns the factors into
    observations.
    """
    obs_seeds: list[int] = []
    for program, suffixes in draws:
        obs_seeds.extend(sample_seeds_encoded(
            (machine.name, program.name), suffixes
        ))
    # Bound to a name so the lint planes' call graph follows the draws.
    model = machine.noise
    return model.factors(
        list(run_indices) * len(obs_seeds),
        np.repeat(np.array(obs_seeds, dtype=np.uint64), len(run_indices)),
    )


def execute(
    program: Program,
    machine: MachineTopology,
    config: EnvConfig,
    fidelity: str = "analytic",
    seed: int = 0,
) -> float:
    """Convenience one-shot wrapper around :class:`RuntimeExecutor`."""
    return RuntimeExecutor(machine, config, fidelity).execute(program, seed)


def observe(
    program: Program,
    machine: MachineTopology,
    config: EnvConfig,
    run_index: int = 0,
    fidelity: str = "analytic",
    seed: int = 0,
) -> float:
    """One-shot noisy observation."""
    return RuntimeExecutor(machine, config, fidelity).observe(
        program, run_index, seed
    )
