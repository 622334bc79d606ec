"""Sweep orchestration (paper Sec. IV-B).

Executes the full (or scaled) configuration grid for every workload
setting, with repeated runs.  The iteration order mirrors the paper's
batching: *per setting, all configurations are explored iteratively*, and
the repetition index is the outermost loop within a setting — preserving
the relative performance of configurations within each batch.  Because
the simulator's noise streams are keyed by sample identity, results are
bit-identical under any reordering (verified by tests), which is the
property the paper's batching strategy exists to protect on real metal.

Sweeps can fan out across processes; each (workload, setting) batch is an
independent unit of work (:class:`BatchSpec`).  Every backend — serial,
the pool fleet and the nodes fleet — runs under the one supervision core
(:mod:`repro.resilience.supervisor`): every fleet batch has a wall-clock
deadline scaled by its size, dead or hung processes are detected and
respawned, failed attempts retry with deterministic seeded backoff, and
a batch that exhausts its retry budget is *quarantined* — the sweep
degrades gracefully (``fail_policy="degrade"``) or fails fast
(``fail_policy="raise"``).  Results still stream back in batch order, so
the ``progress`` callback fires as each batch lands and records are
bit-identical to serial execution.  The sweep's own process builds the
machine model, the configuration grid and its class plans (one grouping,
pricer and packed config columns per thread count, see
:class:`_ClassPlans`) and draws every miss's noise factors before
dispatch; a fleet process inherits the finished plans with its task
function (copy-on-write under ``fork``, pickled once per process under
``spawn`` or ``forkserver``), so per batch it only prices the classes,
applies the noise and packs the block.  Batch payloads carry only the
batch identity and its noise factors, never the grid.  Every backend
runs the one task function, :func:`_execute_batch`, on the same plans,
and is built with the sweep's
:class:`~repro.resilience.report.FailureLedger` and chaos plan: the
backend injects and books every fault, so the task function holds no
fault logic.  There is no module-global state, so concurrent sweeps on
threads stay independent.  Every failure lands in the
:class:`~repro.resilience.report.FailureReport` attached to the
:class:`SweepResult`.

Passing ``cache=`` (a :class:`~repro.core.cache.SweepCache` or a
directory path) makes the sweep incremental: batches already present in
the cache are loaded instead of re-simulated, and every freshly computed
batch is persisted, so an interrupted full-scale sweep resumes where it
stopped.  Cached, parallel, and serial execution all yield bit-identical
records.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from repro.arch.machines import get_machine
from repro.arch.noise import noisy_runtimes
from repro.arch.topology import MachineTopology
from repro.core.envspace import EnvSpace
from repro.errors import (
    ConfigError,
    FrameError,
    PoisonBatchError,
    SweepCancelledError,
)
from repro.frame.columns import NONE_CODE, RecordBlock, StringTable
from repro.resilience.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    NodesBackend,
    SerialBackend,
    ShardReport,
)
from repro.resilience.chaos import ChaosPlan, apply_cache_fault
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import FailureLedger, FailureReport
from repro.resilience.supervisor import SupervisedTask, Supervisor
from repro.runtime.executor import (
    ClassPricer,
    measurement_noise_factors,
    noise_seed_suffixes,
)
from repro.runtime.icv import EnvConfig, ResolvedICVs, resolve_icvs
from repro.runtime.kernel import max_leaf_factor
from repro.runtime.program import TaskRegion
from repro.workloads.base import Workload, get_workload, workloads_for_arch

__all__ = [
    "BatchSpec",
    "SweepPlan",
    "SweepRecord",
    "SweepResult",
    "check_sweep_block",
    "equivalence_groups",
    "plan_batches",
    "run_sweep",
    "sweep_block_schema",
    "sweep_records_to_block",
    "sweep_block_to_records",
]


@dataclass(frozen=True)
class SweepPlan:
    """What to sweep.

    Attributes
    ----------
    arch:
        Machine name.
    workload_names:
        Applications to include (None = every app the paper ran on
        ``arch``).
    scale:
        Grid scale (see :class:`~repro.core.envspace.EnvSpace`).
    repetitions:
        Runs per configuration (the paper records 3-4).
    inputs_limit:
        Cap on settings per workload (None = all; useful for quick runs).
    seed:
        Base seed for scaled-grid subsampling.
    fidelity:
        Task-region fidelity, ``"analytic"`` or ``"des"``.
    prune:
        Collapse ICV-equivalent configurations before simulating: the
        model is evaluated once per resolved-signature class and each
        member's own noise stream is applied to the shared result.
        Record-identical to the unpruned sweep (verified by the
        ``equivalence-pruning-parity`` differential check), so it does
        not participate in cache keys.
    """

    arch: str
    workload_names: tuple[str, ...] | None = None
    scale: str = "small"
    repetitions: int = 3
    inputs_limit: int | None = None
    seed: int = 0
    fidelity: str = "analytic"
    prune: bool = True

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.fidelity not in ("analytic", "des"):
            raise ConfigError(
                f"fidelity must be 'analytic' or 'des', got {self.fidelity!r}"
            )


@dataclass(frozen=True)
class BatchSpec:
    """One (workload, setting): the sweep's unit of dispatch and caching.

    Deliberately tiny — with its noise factors, this is the only payload
    pickled per batch when fanning out across processes; the
    configuration grid itself travels once per process, in the class
    plans bound to the fleet's task function.
    """

    app: str
    suite: str
    input_size: str
    nthreads: int


@dataclass(frozen=True)
class SweepRecord:
    """One configuration's measurements at one setting (a dataset row)."""

    arch: str
    app: str
    suite: str
    input_size: str
    num_threads: int
    config: EnvConfig
    runtimes: tuple[float, ...]


@dataclass
class SweepResult:
    """All records of one sweep plus bookkeeping.

    The records are stored as :attr:`blocks`, the packed
    :class:`~repro.frame.columns.RecordBlock` of every landed batch;
    :attr:`records` decodes them into rows only when read, and
    :attr:`block` merges them for table building
    (``records_to_table(result.block)``).
    """

    plan: SweepPlan
    #: One packed block per landed batch, in batch order.
    blocks: list[RecordBlock] = field(default_factory=list)
    #: Batches served from the cache vs simulated in this call.
    n_cached_batches: int = 0
    n_computed_batches: int = 0
    #: Configurations actually executed vs fanned out from an
    #: ICV-equivalent representative (computed batches only).
    n_simulated_configs: int = 0
    n_pruned_configs: int = 0
    #: Batches that exhausted their retry budget under
    #: ``fail_policy="degrade"`` — their records are absent; a later run
    #: over the same cache retries them.
    n_quarantined_batches: int = 0
    #: Per-batch failure accounting for this run (always present).
    failure_report: FailureReport | None = None
    #: Which executor backend ran the misses ("serial", "pool", "nodes")
    #: and how many processes its fleet opened (1 for serial or when
    #: nothing ran); records are backend-invariant (the
    #: ``sharded-execution-parity`` check pins it).
    backend: str = "serial"
    n_shards: int = 1
    #: Steal/reassign diagnostics (nodes backend only).  Operational —
    #: depends on real execution timing, unlike ``failure_report``.
    shard_report: ShardReport | None = None

    @cached_property
    def records(self) -> list[SweepRecord]:
        """Every record as a row, decoded from the merged :attr:`block`
        on first read, so equal configs across batches share one
        :class:`~repro.runtime.icv.EnvConfig`."""
        return sweep_block_to_records(self.block) if self.blocks else []

    @cached_property
    def block(self) -> RecordBlock:
        """Every batch merged into one block, in batch order."""
        merged = RecordBlock(sweep_block_schema(self.plan.repetitions))
        for b in self.blocks:
            merged.extend(b)
        return merged

    @property
    def n_samples(self) -> int:
        """Unique samples (rows), the paper's Table II accounting unit."""
        return sum(len(b) for b in self.blocks)

    @property
    def n_measurements(self) -> int:
        """Individual timed runs (rows x repetitions)."""
        return sum(len(b.columns["runtimes"].data) for b in self.blocks)

    def apps(self) -> list[str]:
        """Distinct applications present."""
        return list(dict.fromkeys(self.block.columns["app"].to_numpy()))


# ----------------------------------------------------------------------
# Columnar batch codec
# ----------------------------------------------------------------------
#: ``str`` columns of a configuration in the sweep-record block schema,
#: in schema order.
_CONFIG_STR_FIELDS = (
    "places", "proc_bind", "schedule", "library", "blocktime",
    "force_reduction",
)
#: Every ``str`` column of the sweep-record block schema, in schema order.
_BLOCK_STR_FIELDS = ("arch", "app", "suite", "input_size") + _CONFIG_STR_FIELDS


def sweep_block_schema(repetitions: int) -> dict:
    """The :class:`~repro.frame.columns.RecordBlock` schema of one batch.

    ``runtimes`` is a fixed-width float64 vector column (one slot per
    repetition); the two None-able ints (``cfg_num_threads``,
    ``align_alloc``) use ``-1`` sentinels — both are >= 1 when set.
    """
    return {
        "arch": "str",
        "app": "str",
        "suite": "str",
        "input_size": "str",
        "num_threads": "i8",
        "cfg_num_threads": "i8",
        "places": "str",
        "proc_bind": "str",
        "schedule": "str",
        "library": "str",
        "blocktime": "str",
        "force_reduction": "str",
        "align_alloc": "i8",
        "runtimes": ("f8", max(1, repetitions)),
    }


def sweep_records_to_block(records: Sequence[SweepRecord]) -> RecordBlock:
    """Pack sweep records into a typed columnar block.

    Lossless and order-preserving: :func:`sweep_block_to_records` of the
    result is element-wise equal to ``records`` (pinned by the
    ``columnar-pipeline-parity`` check).  All records must share one
    repetition count — the sweep invariant.
    """
    reps = len(records[0].runtimes) if records else 1
    if reps == 0:
        raise FrameError("cannot pack a record with zero runtimes")
    for r in records:
        if len(r.runtimes) != reps:
            raise FrameError(
                f"inconsistent repetition counts in one batch: "
                f"{len(r.runtimes)} vs {reps}"
            )
    block = RecordBlock(sweep_block_schema(reps))
    cols = block.columns
    cfgs = [r.config for r in records]
    # Column-at-a-time bulk appends: one C-level array extend per
    # column instead of 14 python-level appends per record.  Strings
    # therefore intern column by column, each column's strings in order
    # of first appearance — the order a sweep's batch packer
    # (:meth:`_ClassPlan.pack`) reproduces, so both give equal bytes.
    cols["arch"].extend_cells(r.arch for r in records)
    cols["app"].extend_cells(r.app for r in records)
    cols["suite"].extend_cells(r.suite for r in records)
    cols["input_size"].extend_cells(r.input_size for r in records)
    cols["num_threads"].extend_cells(int(r.num_threads) for r in records)
    cols["cfg_num_threads"].extend_cells(
        -1 if c.num_threads is None else int(c.num_threads) for c in cfgs
    )
    cols["places"].extend_cells(c.places for c in cfgs)
    cols["proc_bind"].extend_cells(c.proc_bind for c in cfgs)
    cols["schedule"].extend_cells(c.schedule for c in cfgs)
    cols["library"].extend_cells(c.library for c in cfgs)
    cols["blocktime"].extend_cells(c.blocktime for c in cfgs)
    cols["force_reduction"].extend_cells(c.force_reduction for c in cfgs)
    cols["align_alloc"].extend_cells(
        -1 if c.align_alloc is None else int(c.align_alloc) for c in cfgs
    )
    # A width-1 vector column stores scalar cells.
    if reps > 1:
        cols["runtimes"].extend_cells(r.runtimes for r in records)
    else:
        cols["runtimes"].extend_cells(r.runtimes[0] for r in records)
    return block


def check_sweep_block(block: RecordBlock) -> None:
    """Check a batch block column by column; raise
    :class:`~repro.errors.FrameError` on the first defect.

    A valid block has the sweep schema, at least one row, no null string
    cell, and an ``align_alloc`` column holding only the ``-1`` sentinel
    or powers of two >= 8 (:class:`~repro.runtime.icv.EnvConfig`'s
    rule) — everything decoding the rows would reject, without decoding
    them.  The fleet validator and the cache run it on every block they
    accept.
    """
    width = block.columns["runtimes"].width if "runtimes" in block.columns \
        else 1
    expected = sweep_block_schema(width)
    if block.schema != {k: ((v, 1) if isinstance(v, str) else v)
                        for k, v in expected.items()}:
        raise FrameError(
            f"not a sweep batch block: schema {block.schema}"
        )
    if len(block) == 0:
        raise FrameError("empty sweep batch block")
    for name in _BLOCK_STR_FIELDS:
        if NONE_CODE in block.columns[name].data:
            raise FrameError(f"sweep batch block: null {name!r} cell")
    align = np.frombuffer(block.columns["align_alloc"].data, dtype=np.int64)
    bad = (align != -1) & ((align < 8) | (align & (align - 1) != 0))
    if bad.any():
        row = int(np.argmax(bad))
        raise FrameError(
            f"sweep batch block row {row}: align_alloc {int(align[row])} "
            "is not a power of two >= 8"
        )


def sweep_block_to_records(block: RecordBlock) -> list[SweepRecord]:
    """Unpack a columnar batch block back into :class:`SweepRecord` rows.

    Column-at-a-time (one ``tolist`` per column, no per-cell NumPy
    boxing) after :func:`check_sweep_block`, whose
    :class:`~repro.errors.FrameError` it raises.  Rows with equal config
    columns share one :class:`~repro.runtime.icv.EnvConfig`, built once.
    """
    check_sweep_block(block)
    width = block.columns["runtimes"].width
    cols = {name: arr.tolist() for name, arr in block.to_arrays().items()}
    built: dict[tuple, EnvConfig] = {}
    configs = []
    for key in zip(cols["cfg_num_threads"],
                   *(cols[name] for name in _CONFIG_STR_FIELDS),
                   cols["align_alloc"]):
        config = built.get(key)
        if config is None:
            num_threads, *strs, align_alloc = key
            config = built[key] = EnvConfig(
                None if num_threads < 0 else num_threads, *strs,
                None if align_alloc < 0 else align_alloc,
            )
        configs.append(config)
    runtimes = cols["runtimes"]
    return list(map(
        SweepRecord, cols["arch"], cols["app"], cols["suite"],
        cols["input_size"], cols["num_threads"], configs,
        map(tuple, runtimes) if width > 1 else zip(runtimes),
    ))


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------
def equivalence_groups(
    configs: Sequence[EnvConfig],
    machine: MachineTopology,
    nthreads: int | None = None,
    *,
    representatives: dict[tuple, ResolvedICVs] | None = None,
) -> dict[tuple, list[int]]:
    """Group grid indices by resolved execution signature.

    Insertion order is grid order, so each group's first index is the
    deterministic representative.  ``nthreads``, if given, overrides the
    thread count before resolution (the per-batch setting).
    ``representatives``, if given, receives each group's representative
    :class:`~repro.runtime.icv.ResolvedICVs` under its signature, so the
    caller can evaluate the class without resolving it a second time.
    """
    from repro.runtime.icv import resolve_icvs

    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        if nthreads is not None:
            config = config.with_threads(nthreads)
        icvs = resolve_icvs(config, machine)
        sig = icvs.execution_signature()
        members = groups.setdefault(sig, [])
        if not members and representatives is not None:
            representatives[sig] = icvs
        members.append(i)
    return groups


@dataclass
class _ClassPlan:
    """One thread count's grid, grouped into ICV-equivalence classes,
    with everything its batches share built once, on construction: the
    classes' pricer, each grid index's class, the noise-seed suffixes
    and the packed config columns."""

    machine: MachineTopology
    fidelity: str
    seed: int
    configs: list[EnvConfig]
    #: Per class: the representative's ICVs (None: the pricer resolves
    #: them) and the class's grid indices, in grid order.
    classes: list[tuple[ResolvedICVs | None, list[int]]]
    #: Whether classes share model terms (off: every class is priced on
    #: its own, the reference the pruning check compares against).
    share: bool
    #: The classes' pricer (each class priced as its first member).
    pricer: ClassPricer = field(init=False, repr=False)
    #: Each grid index's class, as its position in :attr:`classes`.
    grid_classes: np.ndarray = field(init=False, repr=False)
    #: Every config's encoded noise-seed suffix, in grid order.
    noise_suffixes: list[bytes] = field(init=False, repr=False)
    #: The grid's config columns, packed in grid order: the two int
    #: columns as raw ``q`` buffers, each ``str`` column as its strings
    #: in order of first appearance plus local codes.
    grid_columns: dict[str, bytes | tuple[list[str], np.ndarray]] = field(
        init=False, repr=False)

    def __post_init__(self) -> None:
        self.pricer = ClassPricer(
            self.machine,
            [icvs or resolve_icvs(self.configs[members[0]], self.machine)
             for icvs, members in self.classes],
            self.fidelity, share=self.share,
        )
        self.grid_classes = np.empty(len(self.configs), dtype=np.intp)
        for k, (_, members) in enumerate(self.classes):
            self.grid_classes[members] = k
        self.noise_suffixes = noise_seed_suffixes(self.configs, self.seed)
        self.grid_columns = self._pack_columns()

    def _pack_columns(self) -> dict[str, bytes | tuple[list[str], np.ndarray]]:
        cfgs = self.configs
        columns: dict[str, bytes | tuple[list[str], np.ndarray]] = {
            "cfg_num_threads": array("q", [
                -1 if c.num_threads is None else int(c.num_threads)
                for c in cfgs
            ]).tobytes(),
            "align_alloc": array("q", [
                -1 if c.align_alloc is None else int(c.align_alloc)
                for c in cfgs
            ]).tobytes(),
        }
        for name in _CONFIG_STR_FIELDS:
            local = StringTable()
            codes = np.array([local.add(getattr(c, name)) for c in cfgs],
                             dtype=np.int64)
            columns[name] = (local.to_list(), codes)
        return columns

    def pack(self, arch: str, batch: BatchSpec,
             runtimes: np.ndarray) -> RecordBlock:
        """One batch's block: the grid's packed config columns, the
        batch's constant columns and ``runtimes`` (a float64 matrix, one
        row per grid index in grid order).

        Byte-identical to :func:`sweep_records_to_block` of the batch's
        records: strings intern column by column in schema order, each
        column's strings in order of first appearance.
        """
        block = RecordBlock(sweep_block_schema(runtimes.shape[1]))
        n = len(self.configs)
        constants = {"arch": arch, "app": batch.app, "suite": batch.suite,
                     "input_size": batch.input_size,
                     "num_threads": batch.nthreads}
        add = block.strings.add
        for name, col in block.columns.items():
            if name in constants:
                value = constants[name]
                col.data.extend(
                    array("q", [add(value) if col.kind == "str" else value])
                    * n
                )
            elif name == "runtimes":
                col.data.frombytes(runtimes.tobytes())
            elif col.kind == "str":
                strings, codes = self.grid_columns[name]
                remap = np.array([add(s) for s in strings], dtype=np.int64)
                col.data.frombytes(remap[codes].tobytes())
            else:
                col.data.frombytes(self.grid_columns[name])
        return block


#: The most measurement-noise draws a sweep makes in one call: a window
#: of consecutive misses (see :meth:`_ClassPlans.noise_factors`).
NOISE_WINDOW_DRAWS = 2048


@dataclass
class _ClassPlans:
    """A sweep's class plans, one per thread count, each built on first
    use, and the measurement-noise factors of its misses.

    A sweep's batches span only a few thread counts, so the grid is
    re-threaded, grouped and given its pricer once per thread count
    instead of once per batch.  With pruning on, the pricer shares each
    model term among the classes with equal arguments.  Plans
    live as long as the sweep: ``run_sweep`` builds them, draws every
    miss's noise factors from them before dispatch (which builds the
    plan of every thread count a miss uses) and runs the serial path on
    them, or binds them to a fleet's task function, so a fleet process
    builds nothing and never draws noise.
    """

    plan: SweepPlan
    machine: MachineTopology
    configs: list[EnvConfig]
    by_threads: dict[int, _ClassPlan] = field(default_factory=dict)

    def at(self, nthreads: int) -> _ClassPlan:
        """The class plan of ``nthreads`` (built once)."""
        class_plan = self.by_threads.get(nthreads)
        if class_plan is None:
            class_plan = self.by_threads[nthreads] = self._build(nthreads)
        return class_plan

    def _build(self, nthreads: int) -> _ClassPlan:
        machine = self.machine
        cfgs = [config.with_threads(nthreads) for config in self.configs]
        # Without pruning every configuration is its own class.
        classes: list[tuple[ResolvedICVs | None, list[int]]]
        if self.plan.prune:
            resolved: dict[tuple, ResolvedICVs] = {}
            groups = equivalence_groups(cfgs, machine,
                                        representatives=resolved)
            classes = [(resolved[sig], members)
                       for sig, members in groups.items()]
        else:
            classes = [(None, [i]) for i in range(len(cfgs))]
        # Sharing terms across classes is pruning too: without it every
        # class is priced on its own, so the unpruned sweep stays an
        # independent reference for the pruning check.
        return _ClassPlan(machine, self.plan.fidelity, self.plan.seed, cfgs,
                          classes, share=self.plan.prune)

    def noise_factors(
        self, batches: Sequence[BatchSpec]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each batch's ``(drift, jitter)`` noise factors, one per grid
        index and repetition, grid-major.

        The batches are drawn in order, a window of consecutive batches
        per call, as many as fit in :data:`NOISE_WINDOW_DRAWS` draws (at
        least one).  A draw depends only on its sample identity, so the
        window changes no record.
        """
        size = len(self.configs) * self.plan.repetitions
        per_window = max(1, NOISE_WINDOW_DRAWS // size)
        factors: list[tuple[np.ndarray, np.ndarray]] = []
        for start in range(0, len(batches), per_window):
            window = batches[start:start + per_window]
            drift, jitter = measurement_noise_factors(
                self.machine,
                [(get_workload(b.app).program(b.input_size),
                  self.at(b.nthreads).noise_suffixes) for b in window],
                range(self.plan.repetitions),
            )
            factors.extend(
                (drift[k:k + size], jitter[k:k + size])
                for k in range(0, len(drift), size)
            )
        return factors


def _execute_batch(plans: _ClassPlans, payload: tuple,
                   attempt: int) -> RecordBlock:
    """The sweep's task function, the same on every backend: run the
    full config grid for one (workload, setting), packed.

    ``payload`` is ``(batch, drift, jitter)``; ``attempt`` is unused (a
    retry computes the same block), and chaos faults never reach here:
    the backend injects them by task index and attempt.  ``plans`` is
    bound by the sweep before the backend is built.

    With ``plan.prune`` the grid is collapsed into ICV-equivalence
    classes; the deterministic model is evaluated once per class and each
    member's own measurement-noise stream (keyed by its spelling) is
    applied to the shared true runtime.  Bit-identical to executing every
    member, because the model is a function of the resolved ICVs alone —
    only the expensive evaluation is shared, never the noise draws.
    ``drift`` and ``jitter`` are the batch's noise factors, drawn by the
    sweep before dispatch (:meth:`_ClassPlans.noise_factors`); here they
    are only applied.  The block is packed straight
    from the class plan (no :class:`SweepRecord` is built), and every
    backend ships it as is: a handful of flat typed buffers plus an
    interning table.
    """
    batch, drift, jitter = payload
    plan = plans.plan
    program = get_workload(batch.app).program(batch.input_size)
    class_plan: _ClassPlan = plans.at(batch.nthreads)

    # Annotated so the dependency lint's call graph reaches the model.
    pricer: ClassPricer = class_plan.pricer
    true_runtimes = pricer.runtimes(program, plan.seed)[
        class_plan.grid_classes]
    observed = noisy_runtimes(np.repeat(true_runtimes, plan.repetitions),
                              drift, jitter)
    return class_plan.pack(plan.arch, batch,
                           observed.reshape(-1, plan.repetitions))


def _validate_batch_records(value: object) -> str | None:
    """Reject task results that are not a valid batch block.

    The supervisor treats a rejection as a ``corrupt-result`` attempt
    failure, so a worker returning garbage (bit-flipped IPC, chaos
    injection) is retried instead of poisoning the dataset.  The block
    is checked by :func:`check_sweep_block`, never decoded.
    """
    if not isinstance(value, RecordBlock):
        return (
            "worker returned a corrupt payload instead of batch records: "
            f"{repr(value)[:120]}"
        )
    try:
        check_sweep_block(value)
    except FrameError as exc:
        return f"worker returned an invalid batch block: {exc}"
    return None


#: Default batch deadline: a generous floor plus a per-sample allowance,
#: so the timeout scales with batch size instead of flagging big batches.
BASE_BATCH_TIMEOUT_S = 30.0
PER_SAMPLE_TIMEOUT_S = 0.01


def _batch_timeout_s(n_configs: int, repetitions: int) -> float:
    return BASE_BATCH_TIMEOUT_S + PER_SAMPLE_TIMEOUT_S * n_configs * repetitions


def _make_fleet(
    backend: str,
    n: int,
    plans: _ClassPlans,
    ledger: FailureLedger,
    chaos: ChaosPlan | None,
) -> ExecutorBackend:
    """The supervised process fleet running on the sweep's class plans
    (test seam).

    ``backend`` is ``"pool"`` (``n`` workers) or ``"nodes"`` (``n``
    nodes, one per shard).  Both run :func:`_execute_batch` bound to
    ``plans``, the task function the serial backend runs, with the same
    validator, ``ledger`` and ``chaos``, so a batch computes and fails
    identically on either: only the scheduling differs.  Each fleet
    process gets the bound task function and ``chaos`` as its process
    arguments and sets up nothing else; each task's payload carries its
    batch's noise factors, so no fleet process draws noise.
    """
    fleet = Supervisor if backend == "pool" else NodesBackend
    return fleet(partial(_execute_batch, plans), ledger, chaos, n,
                 validate=_validate_batch_records)


def _warm_task_regions(batches: Sequence[BatchSpec]) -> None:
    """Price every task region's straggler factor of ``batches`` in
    this process, so fleet processes forked from it inherit the memo of
    :func:`~repro.runtime.kernel.max_leaf_factor` and its
    ``scipy.special`` import rather than each paying that import in its
    first task-region batch."""
    for batch in batches:
        for phase in get_workload(batch.app).program(batch.input_size).phases:
            if isinstance(phase, TaskRegion):
                max_leaf_factor(phase.leaf_sigma, phase.n_leaves)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _resolve_workloads(plan: SweepPlan) -> list[Workload]:
    if plan.workload_names is None:
        return workloads_for_arch(plan.arch)

    workloads = [get_workload(n) for n in plan.workload_names]
    for w in workloads:
        if not w.runs_on(plan.arch):
            raise ConfigError(
                f"workload {w.name!r} was not run on {plan.arch} in the "
                "paper's dataset"
            )
    return workloads


def plan_batches(plan: SweepPlan) -> list[BatchSpec]:
    """The (workload, setting) batches of a plan, in execution order."""
    machine = get_machine(plan.arch)
    out: list[BatchSpec] = []
    for workload in _resolve_workloads(plan):
        settings = workload.settings(machine)
        if plan.inputs_limit is not None:
            settings = settings[: plan.inputs_limit]
        for input_size, nthreads in settings:
            out.append(
                BatchSpec(workload.name, workload.suite, input_size, nthreads)
            )
    return out


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_sweep(
    plan: SweepPlan,
    n_processes: int = 1,
    progress: "callable | None" = None,
    cache: "SweepCache | str | os.PathLike | None" = None,
    fail_policy: str = "raise",
    retry: RetryPolicy | None = None,
    chaos: ChaosPlan | None = None,
    batch_timeout_s: float | None = None,
    backend: str = "auto",
    cancel: "object | None" = None,
) -> SweepResult:
    """Execute a sweep plan; deterministic for a given plan.

    ``progress``, if given, is called as each (workload, setting) batch
    *lands* — incrementally, also on the multiprocess path — with
    ``(batches_done, batches_total, app, input_size, nthreads)``; useful
    feedback on full-scale grids.

    ``cache``, if given (a :class:`~repro.core.cache.SweepCache` or a
    directory path), skips batches whose records are already on disk and
    persists each newly computed batch, making interrupted sweeps
    resumable.  See ``docs/SWEEP_CACHE.md`` for the key scheme.

    Failure handling (see ``docs/RESILIENCE.md``): each batch attempt can
    crash, hang past its deadline (``batch_timeout_s``, default scaled by
    batch size), raise, or return a corrupt payload.  Attempts retry per
    ``retry`` (a :class:`~repro.resilience.policy.RetryPolicy`); a batch
    that exhausts its budget is quarantined.  Under
    ``fail_policy="degrade"`` the sweep completes without the quarantined
    batches (counted in ``n_quarantined_batches``; a later run over the
    same cache retries them); under ``fail_policy="raise"`` the first
    quarantine raises :class:`~repro.errors.PoisonBatchError` carrying
    the failure report.  ``chaos``, if given (a
    :class:`~repro.resilience.chaos.ChaosPlan`), injects that plan's
    faults — the test/rehearsal path behind ``repro-omp chaos``.

    On interruption or error, batches that finished before the failure
    are flushed to the cache before the exception propagates, so no
    landed work is ever lost.

    ``backend`` selects the executor substrate for the cache misses:
    ``"serial"`` (in-process), ``"pool"`` (supervised multiprocess
    fleet), ``"nodes"`` (simulated multi-node cluster over socket
    links), or ``"auto"`` — pool when ``n_processes > 1`` leaves more
    than one miss to share, else serial.  ``n_processes`` sizes the
    fleet: the pool opens up to that many workers, the nodes backend
    that many nodes, each homing the misses dealt to it round-robin and
    stealing when idle; serial ignores it.  Records are bit-identical across
    every ``backend`` × ``n_processes`` combination (the
    ``sharded-execution-parity`` check pins it).

    ``cancel``, if given, is a cooperative-cancellation handle (anything
    with ``is_set()``, typically a ``threading.Event``) checked between
    batches — never mid-batch.  Once set, the sweep flushes every landed
    batch to the cache and raises
    :class:`~repro.errors.SweepCancelledError`, so a cancelled sweep is
    always resumable from where it stopped.  This is the hook the
    serving daemon uses for request deadlines and graceful drain.
    """
    if fail_policy not in ("raise", "degrade"):
        raise ConfigError(
            f"fail_policy must be 'raise' or 'degrade', got {fail_policy!r}"
        )
    if backend not in BACKEND_NAMES + ("auto",):
        raise ConfigError(
            f"backend must be one of {('auto',) + BACKEND_NAMES}, "
            f"got {backend!r}"
        )
    if n_processes < 1:
        raise ConfigError(f"n_processes must be >= 1, got {n_processes}")
    machine = get_machine(plan.arch)
    batches = plan_batches(plan)
    total = len(batches)
    result = SweepResult(plan=plan)
    policy = retry if retry is not None else RetryPolicy(seed=plan.seed)
    ledger = FailureLedger(policy, fail_policy)

    configs = EnvSpace().grid(machine, plan.scale, seed=plan.seed)

    if cache is not None:
        from repro.core.cache import SweepCache

        if not isinstance(cache, SweepCache):
            cache = SweepCache(cache)

    # Resolve cache hits up front so only misses are dispatched to workers.
    cached: dict[int, RecordBlock] = {}
    keys: dict[int, str] = {}
    if cache is not None:
        grid_fp = cache.grid_fingerprint(configs)
        machine_fp = cache.machine_fingerprint(machine)
        for i, batch in enumerate(batches):
            keys[i] = cache.batch_key(plan, grid_fp, machine_fp, batch)
            hit = cache.get(keys[i])
            if hit is not None:
                cached[i] = hit
    misses = [i for i in range(total) if i not in cached]
    # The serial path runs its batches on these plans; every backend
    # counts simulated configurations from them and gets each miss's
    # noise factors from them, drawn here, in miss order, once.
    plans = _ClassPlans(plan, machine, configs)
    noise = plans.noise_factors([batches[i] for i in misses])

    def in_order(
        miss_stream: Iterator[RecordBlock | None],
    ) -> Iterator[tuple[int, BatchSpec, RecordBlock | None, bool]]:
        """Merge cached batches with streamed misses, in batch order."""
        for i, batch in enumerate(batches):
            if i in cached:
                yield i, batch, cached[i], True
            else:
                yield i, batch, next(miss_stream), False

    def consume(miss_stream: Iterator[RecordBlock | None]) -> None:
        for done, (i, batch, block, was_cached) in enumerate(
            in_order(miss_stream), 1
        ):
            # Checked here as well as inside the backends so a fully
            # cached sweep (no backend at all) still honors its handle.
            if cancel is not None and cancel.is_set():
                raise SweepCancelledError(
                    f"sweep cancelled after {done - 1} of {total} batches"
                )
            if block is None:
                # Quarantined under fail_policy="degrade": nothing lands,
                # nothing is cached, so a resume re-attempts this batch.
                result.n_quarantined_batches += 1
            elif was_cached:
                result.blocks.append(block)
                result.n_cached_batches += 1
            else:
                result.blocks.append(block)
                result.n_computed_batches += 1
                n_sim = len(plans.at(batch.nthreads).classes)
                result.n_simulated_configs += n_sim
                result.n_pruned_configs += len(block) - n_sim
                if cache is not None:
                    cache.put(keys[i], block)
                    fault = (chaos.cache_fault(i) if chaos is not None
                             else None)
                    if fault is not None:
                        apply_cache_fault(cache.path_for(keys[i]), fault)
            if progress is not None:
                progress(done, total, batch.app, batch.input_size,
                         batch.nthreads)

    def build_report(worker_respawns: int = 0) -> FailureReport:
        return ledger.build_report(
            injected=chaos.describe() if chaos is not None else (),
            cache_corrupt_keys=(cache.corrupt_keys if cache is not None
                                else ()),
            worker_respawns=worker_respawns,
        )

    resolved = backend
    if resolved == "auto":
        # Historical behavior, unchanged: fan out only when parallelism
        # was requested and more than one miss exists to share.
        resolved = ("pool" if n_processes > 1 and len(misses) > 1
                    else "serial")

    timeout = (
        batch_timeout_s if batch_timeout_s is not None
        else _batch_timeout_s(len(configs), plan.repetitions)
    )
    tasks = [
        SupervisedTask(
            task_id=t, index=i, payload=(batches[i], *noise[t]),
            timeout_s=timeout, identity=batches[i],
        )
        for t, i in enumerate(misses)
    ]

    exec_backend: ExecutorBackend | None = None
    try:
        if not tasks:
            consume(iter(()))  # everything was cached; nothing to run
        else:
            if resolved == "serial":
                exec_backend = SerialBackend(
                    partial(_execute_batch, plans), ledger, chaos,
                    validate=_validate_batch_records,
                )
            else:
                _warm_task_regions([batches[i] for i in misses])
                exec_backend = _make_fleet(resolved, n_processes, plans,
                                           ledger, chaos)
            exec_backend.cancel_event = cancel
            consume(exec_backend.stream(tasks))
    except BaseException as exc:
        # Flush batches that completed before the failure so landed work
        # survives a Ctrl-C or a poison batch under fail_policy="raise".
        if exec_backend is not None and cache is not None:
            for task_id, block in exec_backend.completed_unyielded():
                cache.put(keys[misses[task_id]], block)
        if isinstance(exc, PoisonBatchError):
            exc.report = build_report(
                exec_backend.worker_respawns
                if exec_backend is not None else 0
            )
        raise
    finally:
        if exec_backend is not None:
            exec_backend.close()
    result.failure_report = build_report(
        exec_backend.worker_respawns if exec_backend is not None else 0
    )
    result.backend = resolved
    # Processes the misses actually ran on: serial (or nothing at all)
    # runs one, and the pool opens no more workers than misses.
    if isinstance(exec_backend, NodesBackend):
        result.shard_report = exec_backend.shard_report()
        result.n_shards = result.shard_report.n_shards
    elif exec_backend is not None and resolved == "pool":
        result.n_shards = min(n_processes, len(tasks))
    return result
