"""Persistent, content-addressed cache of sweep batches.

A sweep's unit of work is one (workload, setting) batch — the full
configuration grid at one ``(app, input_size, num_threads)`` point
(:class:`~repro.core.sweep.BatchSpec`).  This module stores each batch's
records on disk under a key that is a stable SHA-256 over everything the
batch's contents depend on:

1. **plan identity** — ``arch``, ``scale``, ``repetitions``, ``seed``,
   ``fidelity``.  ``workload_names`` and ``inputs_limit`` are deliberately
   *excluded*: they select which batches a sweep runs, not what any batch
   contains, so a capped or subset sweep warms the cache for the full one.
2. **grid fingerprint** — a digest of every configuration's identity key,
   in grid order.  Changing the environment space (extensions, chunked
   schedules, a different scale's subsample) changes the fingerprint and
   therefore invalidates nothing — old entries simply stop matching.
3. **machine fingerprint** — a digest of the architecture's model tables:
   every :class:`~repro.arch.topology.MachineTopology` field plus the
   per-arch :class:`~repro.runtime.costs.RuntimeCosts` calibration.
   Editing the machine table (a clock, a NUMA penalty, a futex latency)
   changes the records a batch would produce, so it must miss.
4. **batch identity** — ``app``, ``suite``, ``input_size``,
   ``num_threads``.

Entries are one JSON file per batch named ``<key>.json``, written
atomically (temp file + rename, optionally fsync'd) so a killed sweep
never leaves a torn entry.  Since format v5 the payload is a **packed
columnar frame** (:class:`~repro.frame.columns.RecordBlock` — flat typed
column arrays plus a string-interning table, see ``docs/COLUMNAR.md``)
instead of one JSON object per record: identity strings are stored once
each, and the entry is a fraction of the v4 size.  Every payload embeds
a SHA-256 over the canonical serialization of its frame, verified on
read: an entry that fails to parse, fails its checksum, or holds a
malformed frame is **quarantined** — moved aside to ``<key>.corrupt``
and counted in :attr:`SweepCache.stats` — never silently re-simulated,
so disk corruption is observable (and surfaces in the sweep's
:class:`~repro.resilience.report.FailureReport`).  A version-mismatched
entry (v4 and older) is a legitimate miss, not corruption.  Because
runtimes round-trip JSON exactly (``repr``-based float serialization),
cached records are bit-identical to freshly simulated ones.

Keys additionally map onto **prefix partitions**: the first
:data:`~repro.resilience.sharding.PARTITION_PREFIX_HEX` hex digits of a
key select one of :attr:`SweepCache.n_partitions` partitions, the same
function the sharded sweep uses to pick a batch's home shard.  A shard
therefore touches a stable subset of partitions, per-partition stats
show where entries and corruption live, and a corrupt entry is charged
to the partition that owns it — never to another shard's.  See
``docs/SWEEP_CACHE.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from collections.abc import Sequence
from pathlib import Path

from repro.arch.topology import MachineTopology
from repro.core.sweep import (
    BatchSpec,
    SweepPlan,
    SweepRecord,
    check_sweep_block,
)
from repro.errors import CacheError, ConfigError, FrameError, UnknownMachine
from repro.frame.columns import RecordBlock
from repro.resilience.sharding import partition_for_key
from repro.runtime.costs import get_costs
from repro.runtime.icv import EnvConfig

__all__ = ["CACHE_FORMAT_VERSION", "CACHE_KEY_FIELDS",
           "CACHE_KEY_EXCLUDED", "SweepCache", "batch_key",
           "grid_fingerprint", "key_material", "machine_fingerprint"]

#: Bump when the on-disk payload layout or key scheme changes; old entries
#: become misses.  v2: batch keys gained the machine fingerprint.
#: v3: observation noise re-keyed from raw EnvConfig identity to the
#: resolved execution signature (ICV-equivalent configs now observe
#: identical runtimes), so v2 record contents are stale.
#: v4: payloads carry a content checksum (``sha256`` over the canonical
#: records serialization), verified on every read.
#: v5: payloads store one packed columnar frame (``frame``) instead of a
#: per-record dict list; the checksum now covers the canonical frame
#: serialization.  v4 entries read as plain misses.
CACHE_FORMAT_VERSION = 5

#: The named slots of a batch key's identity tuple, in hash order.
#: ``plan.*`` names are :class:`~repro.core.sweep.SweepPlan` fields,
#: ``batch.*`` names are :class:`~repro.core.sweep.BatchSpec` fields; the
#: two fingerprints digest the configuration grid and the machine model
#: (see the module docstring).  :func:`key_material` builds the tuple by
#: these names and the dependency lint plane (KEY003) proves every
#: result-altering sweep input lands in one of the slots.
CACHE_KEY_FIELDS = (
    "format_version",
    "plan.arch",
    "plan.scale",
    "plan.repetitions",
    "plan.seed",
    "plan.fidelity",
    "grid_fingerprint",
    "machine_fingerprint",
    "batch.app",
    "batch.suite",
    "batch.input_size",
    "batch.nthreads",
)

#: Plan fields deliberately *outside* the key, with the reason — the
#: KEY003 pass accepts reads of these without a key slot, so every
#: exclusion is a reviewed decision rather than an oversight.
CACHE_KEY_EXCLUDED = {
    "plan.workload_names": (
        "selects which batches run, not what any batch contains; a "
        "subset sweep warms the cache for the full one"
    ),
    "plan.inputs_limit": (
        "caps batch selection only; batch contents are keyed by the "
        "batch identity itself"
    ),
    "plan.prune": (
        "equivalence pruning is proven record-identical to exhaustive "
        "execution (equivalence-pruning-parity), so pruned and unpruned "
        "sweeps share entries"
    ),
}

_CONFIG_FIELDS = (
    "num_threads",
    "places",
    "proc_bind",
    "schedule",
    "library",
    "blocktime",
    "force_reduction",
    "align_alloc",
)


#: A live entry's file name: the SHA-256 content address plus ``.json``.
_ENTRY_NAME_RE = re.compile(r"\A[0-9a-f]{64}\.json\Z")


def grid_fingerprint(configs: Sequence[EnvConfig]) -> str:
    """Stable digest of a configuration grid's identity, order included."""
    h = hashlib.sha256()
    for config in configs:
        h.update(repr(config.key()).encode("utf-8"))
    return h.hexdigest()


def machine_fingerprint(machine: MachineTopology) -> str:
    """Stable digest of the machine model a sweep runs against.

    Covers every declared topology field plus the architecture's runtime
    cost table, so editing either invalidates cached batches.  Unregistered
    (synthetic test) machines simply contribute no cost-table component.
    """
    h = hashlib.sha256()
    for f in dataclasses.fields(machine):
        h.update(f"{f.name}={getattr(machine, f.name)!r};".encode("utf-8"))
    try:
        costs = get_costs(machine.name)
    except UnknownMachine:
        costs = None
    if costs is not None:
        for f in dataclasses.fields(costs):
            h.update(f"{f.name}={getattr(costs, f.name)!r};".encode("utf-8"))
    return h.hexdigest()


def key_material(
    plan: SweepPlan, grid_fp: str, machine_fp: str, batch: BatchSpec
) -> dict[str, object]:
    """The full key material of one batch, by slot name.

    Maps :data:`CACHE_KEY_FIELDS` onto the values :func:`batch_key`
    hashes, in hash order (``dict`` preserves insertion order).  The
    introspection the dependency lint plane and
    :meth:`SweepCache.key_fields` rest on.
    """
    identity = (
        CACHE_FORMAT_VERSION,
        plan.arch,
        plan.scale,
        plan.repetitions,
        plan.seed,
        plan.fidelity,
        grid_fp,
        machine_fp,
        batch.app,
        batch.suite,
        batch.input_size,
        batch.nthreads,
    )
    return dict(zip(CACHE_KEY_FIELDS, identity, strict=True))


def batch_key(
    plan: SweepPlan, grid_fp: str, machine_fp: str, batch: BatchSpec
) -> str:
    """The content address of one batch (see the module docstring)."""
    identity = tuple(key_material(plan, grid_fp, machine_fp, batch).values())
    return hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()


def _record_to_dict(record: SweepRecord) -> dict:
    """Legacy (v4) per-record dict codec.

    No longer the storage format; kept as the reference representation
    the ``columnar-pipeline-parity`` check and the record-pipeline
    benchmarks compare the packed frame path against.
    """
    return {
        "arch": record.arch,
        "app": record.app,
        "suite": record.suite,
        "input_size": record.input_size,
        "num_threads": record.num_threads,
        "config": {f: getattr(record.config, f) for f in _CONFIG_FIELDS},
        "runtimes": list(record.runtimes),
    }


def _canonical_payload(payload: object) -> bytes:
    """The byte string the content checksum covers.

    Canonical JSON (sorted keys, no whitespace) of the frame payload:
    identical whether computed from the freshly packed frame at put time
    or from a parsed payload at get time (entries not in put's layout),
    because JSON floats round-trip via ``repr`` exactly.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


#: What :meth:`SweepCache.put` writes between the header and the frame.
_FRAME_SEPARATOR = b', "frame": '


def _parse(data: bytes) -> object:
    try:
        return json.loads(data)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CacheError(f"unparseable cache entry: {exc}") from exc


def _verified_frame(raw: bytes) -> dict | None:
    """The checksum-verified frame payload of an entry's bytes.

    ``None`` for a stale format version; :class:`CacheError` for a
    corrupt entry.  An entry in :meth:`SweepCache.put`'s layout — a
    header object without a ``frame`` key, the separator, the canonical
    frame bytes, ``}`` — is verified in place: the checksum runs over
    the stored frame bytes and exactly those bytes are parsed.  Any
    other layout, or bytes that miss the digest, are parsed whole and
    the frame re-serialized canonically for the check.
    """
    cut = raw.rfind(_FRAME_SEPARATOR)
    if cut >= 0 and raw.endswith(b"}"):
        try:
            header = json.loads(raw[:cut] + b"}")
        except ValueError:
            header = None
        if isinstance(header, dict) and "frame" not in header:
            if header.get("version") != CACHE_FORMAT_VERSION:
                return None
            frame = raw[cut + len(_FRAME_SEPARATOR):-1]
            if hashlib.sha256(frame).hexdigest() == header.get("sha256"):
                payload = _parse(frame)
                if not isinstance(payload, dict):
                    raise CacheError("cache frame is not a JSON object")
                return payload
    payload = _parse(raw)
    if not isinstance(payload, dict):
        raise CacheError("cache entry is not a JSON object")
    if payload.get("version") != CACHE_FORMAT_VERSION:
        return None
    frame_payload = payload.get("frame")
    digest = payload.get("sha256")
    if (
        not isinstance(frame_payload, dict)
        or digest is None
        or hashlib.sha256(
            _canonical_payload(frame_payload)
        ).hexdigest() != digest
    ):
        raise CacheError("cache entry fails its checksum")
    return frame_payload


def _record_from_dict(payload: dict) -> SweepRecord:
    """Inverse of :func:`_record_to_dict` (legacy v4 reference codec)."""
    try:
        return SweepRecord(
            arch=payload["arch"],
            app=payload["app"],
            suite=payload["suite"],
            input_size=payload["input_size"],
            num_threads=payload["num_threads"],
            config=EnvConfig(**payload["config"]),
            runtimes=tuple(payload["runtimes"]),
        )
    except (KeyError, TypeError) as exc:
        raise CacheError(f"malformed cache record: {exc}") from exc


class SweepCache:
    """On-disk batch cache rooted at a directory.

    Thread-model: a single writer (the orchestrating process) and any
    number of readers.  Writes are atomic renames; concurrent sweeps over
    one directory at worst recompute a batch and overwrite it with
    identical content.
    """

    #: Re-exported so callers holding a cache need not import the module.
    grid_fingerprint = staticmethod(grid_fingerprint)
    machine_fingerprint = staticmethod(machine_fingerprint)
    batch_key = staticmethod(batch_key)
    key_material = staticmethod(key_material)

    @staticmethod
    def key_fields() -> tuple[str, ...]:
        """The named slots of the key-material tuple, in hash order."""
        return CACHE_KEY_FIELDS

    def __init__(
        self,
        root: str | os.PathLike,
        fsync: bool = False,
        n_partitions: int = 8,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        if n_partitions < 1:
            raise ConfigError(
                f"n_partitions must be >= 1, got {n_partitions}"
            )
        #: Key-prefix partition count (see :func:`repro.resilience.
        #: sharding.partition_for_key`).  Partitions are an *accounting
        #: view* — entries share one directory; the prefix of the key
        #: decides ownership, so shards and sweep parents agree without
        #: coordination and per-partition stats stay meaningful however
        #: many shards wrote the entries.
        self.n_partitions = n_partitions
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Writes that found another process's entry already in place
        #: (the daemon and the CLI share one cache dir); the loser's
        #: rename lands identical content, so losing the race is
        #: harmless — but it should be *visible*, not silent.
        self.lost_races = 0
        #: Keys quarantined this session, in discovery order.
        self.corrupt_keys: list[str] = []

    def partition_for(self, key: str) -> int:
        """The key-prefix partition owning ``key``.

        Real sweep keys are 64-hex digests; the cache itself accepts any
        string, so a foreign key falls back to a deterministic hash of
        its bytes rather than failing the accounting.
        """
        try:
            return partition_for_key(key, self.n_partitions)
        except ConfigError:
            digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
            return partition_for_key(digest, self.n_partitions)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def path_for(self, key: str) -> Path:
        """The on-disk entry path for ``key`` (fault injection, tooling)."""
        return self._path(key)

    def corrupt_path_for(self, key: str) -> Path:
        """Where a quarantined entry for ``key`` lands."""
        return self.root / f"{key}.corrupt"

    @property
    def stats(self) -> dict:
        """Session counters plus the on-disk entry count; ``corrupt``
        makes disk rot observable.

        ``partitions`` breaks entries and session corruption down by
        key-prefix partition, so a corrupt entry is charged to the
        partition that owns it and never bleeds into another shard's
        accounting.
        """
        entries = [0] * self.n_partitions
        for p in self.root.glob("*.json"):
            if _ENTRY_NAME_RE.match(p.name):
                entries[self.partition_for(p.name[:-len(".json")])] += 1
        corrupt = [0] * self.n_partitions
        for key in self.corrupt_keys:
            corrupt[self.partition_for(key)] += 1
        return {
            "entries": sum(entries),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "lost_races": self.lost_races,
            "corrupt": len(self.corrupt_keys),
            "corrupt_keys": tuple(self.corrupt_keys),
            "partitions": tuple(
                {"partition": i, "entries": entries[i],
                 "corrupt": corrupt[i]}
                for i in range(self.n_partitions)
            ),
        }

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry to ``<key>.corrupt`` and record it.

        A quarantined key also counts as a miss (the batch will be
        re-simulated), but unlike the pre-checksum behavior the
        corruption is never invisible: it is counted, listed, and the
        poisoned bytes are preserved for inspection.
        """
        try:
            os.replace(self._path(key), self.corrupt_path_for(key))
        except OSError:
            pass  # raced away or unreadable in place; still record it
        self.corrupt_keys.append(key)
        self.misses += 1

    def get(self, key: str) -> RecordBlock | None:
        """The cached batch block for ``key``, or None (counts as a miss).

        A missing file or a version-mismatched (stale-format) entry is a
        plain miss.  Anything else that fails — unparseable JSON (torn
        write), checksum mismatch (bit rot), a malformed frame or a block
        :func:`~repro.core.sweep.check_sweep_block` rejects — is
        quarantined via :meth:`_quarantine`.  The rows are not decoded.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self._quarantine(key)
            return None
        try:
            frame_payload = _verified_frame(raw)
        except CacheError:
            self._quarantine(key)
            return None
        if frame_payload is None:
            # A stale on-disk format (v4 and older) is expected after
            # upgrades — a legitimate miss, not corruption.
            self.misses += 1
            return None
        try:
            block = RecordBlock.from_payload(frame_payload)
            check_sweep_block(block)
        except FrameError:
            self._quarantine(key)
            return None
        self.hits += 1
        return block

    def put(self, key: str, block: RecordBlock) -> None:
        """Persist one packed batch block atomically under ``key``.

        With ``fsync=True`` the entry is flushed to stable storage (file
        data before the rename, directory entry after) so a power cut
        cannot tear it — the durability mode for long unattended
        campaigns.
        """
        frame = _canonical_payload(block.to_payload())
        # The entry embeds the canonical frame text the checksum covers,
        # so the frame is serialized once and ``get`` verifies it in place.
        header = json.dumps({
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "sha256": hashlib.sha256(frame).hexdigest(),
        }).encode("utf-8")
        data = header[:-1] + _FRAME_SEPARATOR + frame + b"}"
        path = self._path(key)
        # The tmp name is salted with the pid so two processes put()-ing
        # the same key never interleave on one tmp file; each composes
        # its entry privately and the two renames serialize at the
        # filesystem.  Whoever renames last wins — with identical
        # content, since the key is a content address — and the loser is
        # counted in ``lost_races``.
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            if self.fsync:
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
            else:
                tmp.write_bytes(data)
            raced = path.exists()
            os.replace(tmp, path)
        except BaseException:
            # Never leave a stray tmp behind an interrupted write.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if raced:
            self.lost_races += 1
        if self.fsync:
            dir_fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self.writes += 1

    def __len__(self) -> int:
        """Number of live batch entries on disk.

        Counts only well-formed content-address names —
        ``<64-hex-key>.json``, what :func:`batch_key` produces — so a
        foreign or quarantine-adjacent file dropped into the cache
        directory (``notes.json``, tooling output, a hand-renamed
        ``.corrupt`` sibling) never inflates the entry count.
        """
        return sum(
            1 for p in self.root.glob("*.json")
            if _ENTRY_NAME_RE.match(p.name)
        )

    def __repr__(self) -> str:
        return (
            f"SweepCache({str(self.root)!r}: {len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses / "
            f"{len(self.corrupt_keys)} corrupt this session)"
        )
