"""Environment variables -> Internal Control Variables (ICVs).

Implements the exact default-derivation logic the paper documents in
Sec. III (confirmed with libomp's maintainers):

- ``OMP_PROC_BIND``: unset corresponds to ``false``; but if ``OMP_PLACES``
  is set, the default becomes ``spread``.
- ``OMP_SCHEDULE`` defaults to ``static`` (runtime-chosen chunk).
- ``KMP_LIBRARY`` defaults to ``throughput``.
- ``KMP_BLOCKTIME`` defaults to 200 ms; ``infinite`` disables sleeping,
  ``0`` sleeps immediately.
- ``KMP_FORCE_REDUCTION`` unset selects the runtime heuristic: 1 thread ->
  a no-synchronization fast path, 2..4 threads -> ``critical``, more ->
  ``tree``.
- ``KMP_ALIGN_ALLOC`` defaults to the architecture cache-line size
  (256 B on A64FX, 64 B on the x86 machines).
- ``OMP_WAIT_POLICY`` is *derived* from ``KMP_LIBRARY`` + ``KMP_BLOCKTIME``
  (the reason the paper sweeps the two ``KMP_*`` variables instead):
  ``turnaround``/``infinite`` -> ACTIVE spinning, ``throughput`` with a
  finite blocktime -> PASSIVE-after-blocktime.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.arch.topology import MachineTopology, PlaceKind
from repro.errors import InvalidEnvValue, UnknownVariable

__all__ = [
    "UNSET",
    "ENV_FIELDS",
    "BindPolicy",
    "ScheduleKind",
    "LibraryMode",
    "WaitPolicy",
    "ReductionMethod",
    "EnvConfig",
    "ResolvedICVs",
    "resolve_icvs",
]

#: Sentinel string meaning "environment variable not set".
UNSET = "unset"


class BindPolicy(str, enum.Enum):
    """``OMP_PROC_BIND`` values (Sec. III-2)."""

    UNSET = "unset"
    FALSE = "false"
    TRUE = "true"
    MASTER = "master"
    CLOSE = "close"
    SPREAD = "spread"


class ScheduleKind(str, enum.Enum):
    """``OMP_SCHEDULE`` kinds (Sec. III-3; chunk sizes not swept)."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"
    AUTO = "auto"


class LibraryMode(str, enum.Enum):
    """``KMP_LIBRARY`` execution modes (Sec. III-4; ``serial`` excluded
    from sweeps but supported by the model)."""

    SERIAL = "serial"
    THROUGHPUT = "throughput"
    TURNAROUND = "turnaround"


class WaitPolicy(str, enum.Enum):
    """Derived ``OMP_WAIT_POLICY``."""

    ACTIVE = "active"
    PASSIVE = "passive"


class ReductionMethod(str, enum.Enum):
    """``KMP_FORCE_REDUCTION`` methods (Sec. III-6)."""

    UNSET = "unset"
    TREE = "tree"
    CRITICAL = "critical"
    ATOMIC = "atomic"
    #: Resolved-only: single-thread fast path (never set via env).
    NONE = "none"


#: Legal KMP_BLOCKTIME sweep values; any int in [0, INT32_MAX] is accepted.
BLOCKTIME_INFINITE = "infinite"

#: Environment-variable name -> :class:`EnvConfig` field, in Sec. III order.
ENV_FIELDS: dict[str, str] = {
    "OMP_NUM_THREADS": "num_threads",
    "OMP_PLACES": "places",
    "OMP_PROC_BIND": "proc_bind",
    "OMP_SCHEDULE": "schedule",
    "KMP_LIBRARY": "library",
    "KMP_BLOCKTIME": "blocktime",
    "KMP_FORCE_REDUCTION": "force_reduction",
    "KMP_ALIGN_ALLOC": "align_alloc",
}


def _parse_schedule(value: str) -> tuple[ScheduleKind, int | None]:
    """Parse an ``OMP_SCHEDULE`` string: ``kind`` or ``kind,chunk``.

    The paper sweeps kinds only ("but no chunk sizes"); the chunk syntax
    is supported so the restriction can be lifted (see
    ``repro.core.envspace.chunked_schedule_variables``).
    """
    parts = [p.strip() for p in str(value).split(",")]
    if len(parts) > 2 or not parts[0]:
        raise InvalidEnvValue(
            "OMP_SCHEDULE", value, "kind[,chunk] with kind in "
            f"{[s.value for s in ScheduleKind]}"
        )
    try:
        kind = ScheduleKind(parts[0])
    except ValueError:
        raise InvalidEnvValue(
            "OMP_SCHEDULE", value, [s.value for s in ScheduleKind]
        ) from None
    chunk: int | None = None
    if len(parts) == 2:
        try:
            chunk = int(parts[1])
        except ValueError:
            raise InvalidEnvValue(
                "OMP_SCHEDULE", value, "chunk must be an integer"
            ) from None
        if chunk < 1:
            raise InvalidEnvValue("OMP_SCHEDULE", value, "chunk must be >= 1")
    return kind, chunk


@dataclass(frozen=True)
class EnvConfig:
    """One point in the environment-variable space, as a user would set it.

    ``None`` / ``"unset"`` entries mean the variable is absent from the
    environment and libomp's default derivation applies.
    """

    num_threads: int | None = None
    places: str = UNSET
    proc_bind: str = UNSET
    schedule: str = UNSET
    library: str = UNSET
    blocktime: str = UNSET
    force_reduction: str = UNSET
    align_alloc: int | None = None

    def __post_init__(self) -> None:
        # KMP_ALIGN_ALLOC is validated at parse time: a non-power-of-two
        # alignment would otherwise surface only deep inside the
        # runtime/alloc.py false-sharing model, long after the config was
        # built (and on A64FX-shaped machines only).
        self._check_align_alloc()

    def _check_align_alloc(self) -> None:
        if self.align_alloc is not None:
            if (
                not isinstance(self.align_alloc, int)
                or self.align_alloc < 8
                or self.align_alloc & (self.align_alloc - 1)
            ):
                raise InvalidEnvValue(
                    "KMP_ALIGN_ALLOC", self.align_alloc, "power of two >= 8"
                )

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> "EnvConfig":
        """Parse an environment mapping (as a user would ``export`` it).

        Unknown ``OMP_*``/``KMP_*`` keys raise :class:`UnknownVariable`;
        other keys are ignored (a real environment carries hundreds of
        unrelated variables).  The result is fully validated — every
        domain error surfaces here, at parse time.
        """
        kwargs: dict[str, object] = {}
        for name, raw in env.items():
            if name not in ENV_FIELDS:
                if name.startswith(("OMP_", "KMP_")):
                    raise UnknownVariable(
                        f"{name!r} is not a modeled environment variable; "
                        f"have {sorted(ENV_FIELDS)}"
                    )
                continue
            field_name = ENV_FIELDS[name]
            if field_name in ("num_threads", "align_alloc"):
                try:
                    kwargs[field_name] = int(str(raw).strip())
                except ValueError:
                    raise InvalidEnvValue(name, raw, "an integer") from None
            else:
                kwargs[field_name] = str(raw).strip()
        config = cls(**kwargs)
        config.validate()
        return config

    def validate(self) -> None:
        """Raise :class:`InvalidEnvValue` on any illegal setting."""
        if self.num_threads is not None and self.num_threads < 1:
            raise InvalidEnvValue("OMP_NUM_THREADS", self.num_threads, ">= 1")
        if self.places != UNSET:
            try:
                PlaceKind(self.places)
            except ValueError:
                raise InvalidEnvValue(
                    "OMP_PLACES", self.places, [k.value for k in PlaceKind]
                ) from None
        if self.proc_bind != UNSET:
            try:
                BindPolicy(self.proc_bind)
            except ValueError:
                raise InvalidEnvValue(
                    "OMP_PROC_BIND", self.proc_bind, [b.value for b in BindPolicy]
                ) from None
        if self.schedule != UNSET:
            kind, _chunk = _parse_schedule(self.schedule)
            del kind  # raises InvalidEnvValue on malformed input
        if self.library != UNSET:
            try:
                LibraryMode(self.library)
            except ValueError:
                raise InvalidEnvValue(
                    "KMP_LIBRARY", self.library, [m.value for m in LibraryMode]
                ) from None
        if self.blocktime != UNSET and self.blocktime != BLOCKTIME_INFINITE:
            try:
                bt = int(self.blocktime)
            except (TypeError, ValueError):
                raise InvalidEnvValue(
                    "KMP_BLOCKTIME", self.blocktime, "int in [0, 2^31) or 'infinite'"
                ) from None
            if not 0 <= bt < 2**31:
                raise InvalidEnvValue(
                    "KMP_BLOCKTIME", self.blocktime, "int in [0, 2^31) or 'infinite'"
                )
        if self.force_reduction != UNSET:
            if self.force_reduction not in ("tree", "critical", "atomic"):
                raise InvalidEnvValue(
                    "KMP_FORCE_REDUCTION",
                    self.force_reduction,
                    ["tree", "critical", "atomic"],
                )
        self._check_align_alloc()

    def with_threads(self, num_threads: int) -> "EnvConfig":
        """Copy with a different thread count."""
        return replace(self, num_threads=num_threads)

    def as_env(self) -> dict[str, str]:
        """Render as the environment a user would export (unset vars absent)."""
        out: dict[str, str] = {}
        if self.num_threads is not None:
            out["OMP_NUM_THREADS"] = str(self.num_threads)
        if self.places != UNSET:
            out["OMP_PLACES"] = self.places
        if self.proc_bind != UNSET:
            out["OMP_PROC_BIND"] = self.proc_bind
        if self.schedule != UNSET:
            out["OMP_SCHEDULE"] = self.schedule
        if self.library != UNSET:
            out["KMP_LIBRARY"] = self.library
        if self.blocktime != UNSET:
            out["KMP_BLOCKTIME"] = str(self.blocktime)
        if self.force_reduction != UNSET:
            out["KMP_FORCE_REDUCTION"] = self.force_reduction
        if self.align_alloc is not None:
            out["KMP_ALIGN_ALLOC"] = str(self.align_alloc)
        return out

    def key(self) -> tuple:
        """Hashable identity used to seed noise streams and index datasets."""
        return (
            self.num_threads,
            self.places,
            self.proc_bind,
            self.schedule,
            self.library,
            self.blocktime,
            self.force_reduction,
            self.align_alloc,
        )


#: The per-architecture default configuration: every variable unset, thread
#: count left to the runtime (= all cores).
DEFAULT_CONFIG = EnvConfig()


@dataclass(frozen=True)
class ResolvedICVs:
    """Fully derived control variables for one run on one machine."""

    nthreads: int
    places: PlaceKind
    #: Whether the user set OMP_PLACES explicitly (affects bind default).
    places_explicit: bool
    bind: BindPolicy  # never UNSET after resolution
    schedule: ScheduleKind
    #: Chunk from "kind,chunk" syntax; None = runtime-chosen default.
    schedule_chunk: int | None
    library: LibraryMode
    blocktime_ms: float  # math.inf for 'infinite'
    reduction: ReductionMethod  # never UNSET after resolution
    align_alloc: int
    cache_line: int

    #: The named slots of :meth:`execution_signature`, in tuple order.
    #: ``wait_policy`` is the derived property; the other names are
    #: fields.  The dependency lint plane (KEY002) checks every slot is
    #: read by reachable model code, and this tuple's arity is pinned
    #: against the returned tuple's.
    SIGNATURE_COMPONENTS: ClassVar[tuple[str, ...]] = (
        "nthreads",
        "places",
        "bind",
        "schedule",
        "schedule_chunk",
        "wait_policy",
        "blocktime_ms",
        "reduction",
        "align_alloc",
        "cache_line",
    )

    #: The dead-field normalization table: field -> (guard, reason).
    #: A field listed here is *not* independently folded into
    #: :meth:`execution_signature`.  ``guard`` names the attribute whose
    #: value makes the field irrelevant: model code may read the field
    #: only at sites conditioned on that attribute (``None`` = the field
    #: must not be read by the evaluation cone at all).  The dependency
    #: lint plane (KEY004) enforces exactly this, so the table cannot
    #: drift from the code; ``docs/LINTING.md`` renders it.
    SIGNATURE_DEAD_FIELDS: ClassVar[dict[str, tuple[str | None, str]]] = {
        "library": (
            None,
            "acts only through the derived wait policy (serial's thread "
            "forcing is applied at resolution)",
        ),
        "places_explicit": (
            None,
            "only shifts the bind default, which resolution already "
            "applied",
        ),
        "blocktime_ms": (
            "wait_policy",
            "read only under PASSIVE waiting (sleep threshold, wake "
            "fractions); canonicalized out under ACTIVE",
        ),
        "places": (
            "bind",
            "consulted only when threads are bound; a bound team with "
            "unset places canonicalizes to cores",
        ),
    }

    @property
    def wait_policy(self) -> WaitPolicy:
        """``OMP_WAIT_POLICY`` as libomp derives it.

        ``turnaround`` or an infinite blocktime keep waiters spinning
        (ACTIVE); ``throughput`` with a finite blocktime eventually yields
        and sleeps (PASSIVE).
        """
        if self.library is LibraryMode.TURNAROUND:
            return WaitPolicy.ACTIVE
        if math.isinf(self.blocktime_ms):
            return WaitPolicy.ACTIVE
        return WaitPolicy.PASSIVE

    @property
    def threads_bound(self) -> bool:
        """Whether threads are pinned (any policy except false)."""
        return self.bind is not BindPolicy.FALSE

    def execution_signature(self) -> tuple:
        """Canonical identity of everything execution reads.

        Two configurations with equal signatures are *behaviourally
        identical*: every model component (placement, schedule pricing,
        barriers, reductions, alignment) receives the same inputs, so they
        produce bit-identical modeled runtimes.  The sweep's equivalence
        pruning (``repro.lint.equivalence``) evaluates the model once per
        signature and applies each member's own measurement-noise stream
        (keyed by the spelling, :meth:`EnvConfig.key`) on top; the
        ``equivalence-pruning-parity`` differential check verifies the
        claim against unpruned execution.

        The tuple's slots are named by :data:`SIGNATURE_COMPONENTS`.
        Dead fields are normalized away per the machine-readable table
        :data:`SIGNATURE_DEAD_FIELDS` (field -> guard making it
        irrelevant), which the dependency lint plane enforces against
        the code (KEY004) — so the canonicalizations below (``blocktime``
        dropped under ACTIVE waiting, ``places`` dropped when unbound,
        ``library`` and ``places_explicit`` carried only through their
        derived values) are proven, not just documented.  One value
        normalization rides along: ``true`` binding distributes
        identically to ``spread`` (libomp groups them too — the paper's
        Table VII "spread/true" rows).
        """
        bind = BindPolicy.SPREAD if self.bind is BindPolicy.TRUE else self.bind
        if bind is BindPolicy.FALSE:
            places = PlaceKind.UNSET
        elif self.places is PlaceKind.UNSET:
            places = PlaceKind.CORES
        else:
            places = self.places
        wait = self.wait_policy
        blocktime = None if wait is WaitPolicy.ACTIVE else self.blocktime_ms
        return (
            self.nthreads,
            places.value,
            bind.value,
            self.schedule.value,
            self.schedule_chunk,
            wait.value,
            blocktime,
            self.reduction.value,
            self.align_alloc,
            self.cache_line,
        )


def _heuristic_reduction(nthreads: int) -> ReductionMethod:
    """libomp's reduction-method heuristic (paper Sec. III-6)."""
    if nthreads == 1:
        return ReductionMethod.NONE
    if nthreads <= 4:
        return ReductionMethod.CRITICAL
    return ReductionMethod.TREE


def resolve_icvs(config: EnvConfig, machine: MachineTopology) -> ResolvedICVs:
    """Resolve an :class:`EnvConfig` against a machine, libomp-style."""
    config.validate()

    nthreads = config.num_threads if config.num_threads is not None else machine.n_cores
    # libomp caps the default at available cores but honours explicit
    # oversubscription requests.
    places_explicit = config.places != UNSET
    places = PlaceKind(config.places) if places_explicit else PlaceKind.UNSET

    if config.proc_bind != UNSET:
        bind = BindPolicy(config.proc_bind)
        if bind is BindPolicy.UNSET:
            bind = BindPolicy.SPREAD if places_explicit else BindPolicy.FALSE
    elif places_explicit:
        bind = BindPolicy.SPREAD
    else:
        bind = BindPolicy.FALSE

    if config.schedule != UNSET:
        schedule, schedule_chunk = _parse_schedule(config.schedule)
    else:
        schedule, schedule_chunk = ScheduleKind.STATIC, None

    library = (
        LibraryMode(config.library) if config.library != UNSET else LibraryMode.THROUGHPUT
    )
    if library is LibraryMode.SERIAL:
        # Sec. III-4: serial mode "forces parallel applications to run in
        # a serial manner" (excluded from sweeps, honoured by the model).
        nthreads = 1

    if config.blocktime == UNSET:
        blocktime_ms = 200.0
    elif config.blocktime == BLOCKTIME_INFINITE:
        blocktime_ms = math.inf
    else:
        blocktime_ms = float(int(config.blocktime))

    if config.force_reduction == UNSET:
        reduction = _heuristic_reduction(nthreads)
    else:
        reduction = ReductionMethod(config.force_reduction)

    align = (
        config.align_alloc
        if config.align_alloc is not None
        else machine.cache_line_bytes
    )

    return ResolvedICVs(
        nthreads=nthreads,
        places=places,
        places_explicit=places_explicit,
        bind=bind,
        schedule=schedule,
        schedule_chunk=schedule_chunk,
        library=library,
        blocktime_ms=blocktime_ms,
        reduction=reduction,
        align_alloc=align,
        cache_line=machine.cache_line_bytes,
    )
