"""Whole-program execution: Program x machine x EnvConfig -> runtime.

:func:`execute` returns the *modeled* (noise-free) runtime;
:func:`observe` layers the architecture's measurement-noise model on top,
keyed by the full sample identity so sweeps are reproducible in any
execution order (the property the paper's batching strategy protects).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
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
from repro.runtime.affinity import ThreadPlacement, compute_placement
from repro.runtime.alloc import sync_alignment_factor
from repro.runtime.barrier import serial_gap_seconds
from repro.runtime.costs import work_seconds
from repro.runtime.icv import EnvConfig, ResolvedICVs, resolve_icvs
from repro.runtime.kernel import (
    RegionEngine,
    des_task_body_seconds,
    entry_seconds,
    loop_body_seconds,
    sync_seconds,
    task_body_seconds,
    wait_arguments,
)
from repro.runtime.program import (
    LoopRegion,
    Phase,
    Program,
    SerialPhase,
    TaskRegion,
)
from repro.runtime.schedule import effective_schedule

__all__ = [
    "ClassPricer",
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


def _check_fidelity(fidelity: str) -> None:
    if fidelity not in ("analytic", "des"):
        raise SimulationError(f"unknown fidelity {fidelity!r}")


class RuntimeExecutor:
    """Reusable executor for one (machine, config) pair.

    Caches ICV resolution, placement and the region engine so sweeping many
    programs under one configuration costs a handful of scalar evaluations
    per region.  The machine carries its cost table, so pricing under
    another table means passing another machine
    (``dataclasses.replace(machine, costs=...)``, as the metamorphic
    cost-scaling relation does).  A sweep prices whole class plans with
    :class:`ClassPricer` instead; this executor is the scalar reference
    it is tested against.

    The executor's ICVs, placement and cost table never change, so it
    also memoizes the serial gap before each region and the fork after
    it, keyed on the gap's work alone.
    """

    def __init__(
        self,
        machine: MachineTopology,
        config: EnvConfig,
        fidelity: str = "analytic",
    ):
        _check_fidelity(fidelity)
        self.machine = machine
        self.config = config
        self.fidelity = fidelity
        self.icvs: ResolvedICVs = resolve_icvs(config, machine)
        self.engine = RegionEngine(machine, self.icvs)
        self.placement: ThreadPlacement = self.engine.placement
        self._entry_memo: dict[float, float] = {}

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
        """Modeled (noise-free) wall time of ``program`` in seconds: the
        phase times accumulated left to right from 0.0.  (The builtin
        ``sum`` of floats is compensated from Python 3.12 on, so it would
        round differently across interpreter versions.)"""
        total = 0.0
        for seconds in self._phase_seconds(program, seed):
            total += seconds
        return total

    def _phase_seconds(self, program: Program, seed: int) -> list[float]:
        """Every phase's wall time, trips folded in, in phase order."""
        engine = self.engine
        out = []
        for i, phase in enumerate(program.phases):
            if isinstance(phase, SerialPhase):
                out.append(serial_gap_seconds(
                    engine.wait_policy, self.placement,
                    work_seconds(phase.work, self.machine),
                ))
                continue

            entry = self._entry_memo.get(phase.gap_work)
            if entry is None:
                entry = self._entry_memo[phase.gap_work] = entry_seconds(
                    phase.gap_work, self.placement, engine.wait_policy,
                    engine.blocktime_ms, engine.costs,
                )
            if isinstance(phase, LoopRegion):
                body = engine.loop_region_seconds(phase)
            elif isinstance(phase, TaskRegion):
                # Only a DES body draws from the phase's seed.
                body = engine.task_region_seconds(
                    phase, fidelity=self.fidelity,
                    seed=sample_seed(seed, i) if self.fidelity == "des" else 0,
                )
            else:  # pragma: no cover - exhaustive over Phase union
                raise SimulationError(f"unknown phase type {type(phase)!r}")
            out.append((entry + body) * phase.trips)
        return out

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


def _groups(
    keys: Sequence[Hashable], share: bool
) -> tuple[list, np.ndarray]:
    """The distinct ``keys`` in order of first appearance and each
    position's group index into them; with ``share`` off, every position
    is its own group."""
    if not share:
        return list(keys), np.arange(len(keys), dtype=np.intp)
    first: dict[Hashable, int] = {}
    index = np.fromiter((first.setdefault(key, len(first)) for key in keys),
                        dtype=np.intp, count=len(keys))
    return list(first), index


class ClassPricer:
    """Prices every class of a sweep's class plan at once: one float64
    vector per program, one entry per class.

    ``classes`` holds each class's resolved ICVs.  Every model term takes
    exactly what it reads, so two classes with equal argument tuples
    share its value.  The pricer groups the classes by each term's
    argument tuple once, then per phase evaluates each term once per
    group with the scalar function, gathers the values to the classes
    with an index array, and combines them elementwise in
    :meth:`RuntimeExecutor._phase_seconds`'s order,
    ``((gap + fork) + (body + sync * align)) * trips``, accumulating the
    phases left to right from 0.0.  numpy's float64 ``+`` and ``*``
    round exactly as Python's float operators do, so each entry is
    bit-identical to :meth:`RuntimeExecutor.execute` of its class.

    Phase vectors are memoized on the phase's argument (region, gap work
    or serial work) for the pricer's lifetime; DES task bodies, whose
    seed varies per phase, are not.  With ``share`` off every class is
    its own group, so no class reuses another's term.
    """

    def __init__(
        self,
        machine: MachineTopology,
        classes: Sequence[ResolvedICVs],
        fidelity: str = "analytic",
        *,
        share: bool = True,
    ):
        _check_fidelity(fidelity)
        self.machine = machine
        self.fidelity = fidelity
        self.share = share
        self.costs = machine.costs
        self.n_classes = len(classes)
        placements, schedules, waits, syncs, aligns = [], [], [], [], []
        # Annotated so the dependency lint sees the ICV reads.
        icvs: ResolvedICVs
        for icvs in classes:
            placement = compute_placement(icvs, machine)
            wait, blocktime = wait_arguments(icvs)
            placements.append(placement)
            schedules.append((icvs.schedule, icvs.schedule_chunk))
            waits.append((placement, wait, blocktime))
            syncs.append((placement, wait, icvs.reduction))
            aligns.append(sync_alignment_factor(icvs, self.costs))
        self._placements = placements
        self._schedules = schedules
        self._align = np.array(aligns)
        self._serial_groups = _groups([w[:2] for w in waits], share)
        self._wait_groups = _groups(waits, share)
        self._sync_groups = _groups(syncs, share)
        self._schedule_groups: dict[tuple, tuple[list, np.ndarray]] = {}
        self._memo: dict[tuple, np.ndarray] = {}

    def runtimes(self, program: Program, seed: int = 0) -> np.ndarray:
        """Every class's modeled (noise-free) wall time of ``program``."""
        total = np.zeros(self.n_classes)
        for i, phase in enumerate(program.phases):
            total += self._phase_seconds(phase, i, seed)
        return total

    def _phase_seconds(self, phase: Phase, i: int, seed: int) -> np.ndarray:
        if isinstance(phase, SerialPhase):
            return self._serial(phase.work)
        entry = self._entry(phase.gap_work)
        if isinstance(phase, LoopRegion):
            body = self._loop(phase)
        elif isinstance(phase, TaskRegion):
            body = (self._task_des(phase, sample_seed(seed, i))
                    if self.fidelity == "des" else self._task(phase))
        else:  # pragma: no cover - exhaustive over Phase union
            raise SimulationError(f"unknown phase type {type(phase)!r}")
        return (entry + body) * phase.trips

    def _serial(self, work: float) -> np.ndarray:
        out = self._memo.get(("serial", work))
        if out is None:
            gap = work_seconds(work, self.machine)
            keys, index = self._serial_groups
            out = self._memo["serial", work] = np.array([
                serial_gap_seconds(wait, p, gap) for p, wait in keys
            ])[index]
        return out

    def _entry(self, gap_work: float) -> np.ndarray:
        out = self._memo.get(("entry", gap_work))
        if out is None:
            keys, index = self._wait_groups
            out = self._memo["entry", gap_work] = np.array([
                entry_seconds(gap_work, p, wait, blocktime, self.costs)
                for p, wait, blocktime in keys
            ])[index]
        return out

    def _sync(self, n_reductions: int) -> np.ndarray:
        """``sync * align`` per class for a region reducing
        ``n_reductions`` scalars."""
        out = self._memo.get(("sync", n_reductions))
        if out is None:
            keys, index = self._sync_groups
            out = self._memo["sync", n_reductions] = np.array([
                sync_seconds(n_reductions, p, wait, reduction, self.costs)
                for p, wait, reduction in keys
            ])[index] * self._align
        return out

    def _loop(self, region: LoopRegion) -> np.ndarray:
        """``body + sync * align`` per class for one loop invocation."""
        out = self._memo.get(("loop", region))
        if out is None:
            keys, index = self._schedules_under(region)
            out = self._memo["loop", region] = np.array([
                loop_body_seconds(region, p, kind, chunk, self.costs)
                for p, kind, chunk in keys
            ])[index] + self._sync(region.n_reductions)
        return out

    def _schedules_under(self, region: LoopRegion) -> tuple[list, np.ndarray]:
        """The classes grouped by ``(placement, effective schedule)`` for
        ``region``.  Only a compiled-in schedule clause makes the
        grouping depend on the region, so one grouping per clause
        serves every loop."""
        clause = (region.fixed_schedule, region.fixed_chunk)
        groups = self._schedule_groups.get(clause)
        if groups is None:
            groups = self._schedule_groups[clause] = _groups([
                (p, *effective_schedule(region, kind, chunk))
                for p, (kind, chunk) in zip(self._placements, self._schedules)
            ], self.share)
        return groups

    def _task(self, region: TaskRegion) -> np.ndarray:
        """``body + sync * align`` per class for one analytic task
        invocation (a task region's sync is the join alone)."""
        out = self._memo.get(("task", region))
        if out is None:
            keys, index = self._wait_groups
            out = self._memo["task", region] = np.array([
                task_body_seconds(region, p, wait, blocktime, self.costs)
                for p, wait, blocktime in keys
            ])[index] + self._sync(0)
        return out

    def _task_des(self, region: TaskRegion, seed: int) -> np.ndarray:
        keys, index = self._wait_groups
        return np.array([
            des_task_body_seconds(region, p, wait, blocktime, self.costs,
                                  seed)
            for p, wait, blocktime in keys
        ])[index] + self._sync(0)


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
