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
3. **machine fingerprint** — a digest of every
   :class:`~repro.arch.topology.MachineTopology` field: the topology and
   the machine's cost, noise and power tables.  Editing any of them (a
   clock, a NUMA penalty, a futex latency, a noise ``sigma`` or drift
   factor) changes the records a batch would produce, so it must miss.
4. **batch identity** — ``app``, ``suite``, ``input_size``,
   ``num_threads``.

Entries are one file per batch named ``<key>.blk``, written atomically
(temp file + rename, optionally fsync'd) so a killed sweep never leaves
a torn entry.  Since format v6 an entry is a one-line JSON header
(``version``, ``key``, ``sha256``) followed by the batch's packed
:class:`~repro.frame.columns.RecordBlock` in its byte codec
(:meth:`~repro.frame.columns.RecordBlock.to_bytes`: a JSON header line
with the schema and interned strings, then the raw column buffers — see
``docs/COLUMNAR.md``).  ``sha256`` covers every byte that is decoded,
so runtimes are stored and read back bit for bit.  An entry that is torn,
names another format version or another key, fails its checksum, or
decodes to a malformed block is **quarantined** — moved aside to
``<key>.corrupt`` and counted in :attr:`SweepCache.stats` — never
silently re-simulated, so disk corruption is observable (and surfaces
in the sweep's :class:`~repro.resilience.report.FailureReport`).  The
format version is slot 0 of the key, so an entry of another version
never sits under a current key: a ``version`` mismatch in a ``.blk``
entry can only be corruption.  v5 and older entries (``<key>.json``)
are never even read.  See ``docs/SWEEP_CACHE.md``.
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
    check_sweep_block,
)
from repro.errors import FrameError
from repro.frame.columns import RecordBlock
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
#: v6: entries are ``<key>.blk`` — a JSON header line, then the block's
#: byte codec (raw column buffers); the checksum covers those bytes.  The
#: version is slot 0 of the key, so old entries live under other keys and
#: are never read; a header of another version under this key is corrupt.
CACHE_FORMAT_VERSION = 6

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

#: A live entry's file name: the SHA-256 content address plus ``.blk``.
_ENTRY_NAME_RE = re.compile(r"\A[0-9a-f]{64}\.blk\Z")


def grid_fingerprint(configs: Sequence[EnvConfig]) -> str:
    """Stable digest of a configuration grid's identity, order included."""
    h = hashlib.sha256()
    for config in configs:
        h.update(repr(config.key()).encode("utf-8"))
    return h.hexdigest()


def machine_fingerprint(machine: MachineTopology) -> str:
    """Stable digest of the machine model a sweep runs against.

    Covers every declared field of the machine, whose cost, noise and
    power tables are fields too (each digested through its ``repr``), so
    editing any of them invalidates cached batches.
    """
    h = hashlib.sha256()
    for f in dataclasses.fields(machine):
        h.update(f"{f.name}={getattr(machine, f.name)!r};".encode("utf-8"))
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

    def __init__(self, root: str | os.PathLike, fsync: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
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

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.blk"

    def path_for(self, key: str) -> Path:
        """The on-disk entry path for ``key`` (fault injection, tooling)."""
        return self._path(key)

    def corrupt_path_for(self, key: str) -> Path:
        """Where a quarantined entry for ``key`` lands."""
        return self.root / f"{key}.corrupt"

    @property
    def stats(self) -> dict:
        """Session counters plus the on-disk entry count; ``corrupt``
        makes disk rot observable."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "lost_races": self.lost_races,
            "corrupt": len(self.corrupt_keys),
            "corrupt_keys": tuple(self.corrupt_keys),
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

        A missing file is a plain miss.  Anything else that fails — a
        torn entry, a header of another format version, a checksum
        mismatch (bit rot), a header naming another key, bytes
        :meth:`~repro.frame.columns.RecordBlock.from_bytes` rejects or a
        block :func:`~repro.core.sweep.check_sweep_block` rejects — is
        quarantined via :meth:`_quarantine`.  The rows are not decoded.
        """
        try:
            raw = self._path(key).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self._quarantine(key)
            return None
        cut = raw.find(b"\n")
        try:
            header = json.loads(raw[:cut]) if cut >= 0 else None
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            header = None
        body = raw[cut + 1:]
        try:
            if not isinstance(header, dict) or (
                    header.get("version") != CACHE_FORMAT_VERSION) or (
                    header.get("key") != key) or (
                    header.get("sha256") != hashlib.sha256(body).hexdigest()):
                raise FrameError("cache entry is torn or fails its checksum")
            block = RecordBlock.from_bytes(body)
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
        body = block.to_bytes()
        header = json.dumps({
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "sha256": hashlib.sha256(body).hexdigest(),
        }).encode("utf-8")
        path = self._path(key)
        # The tmp name is salted with the pid so two processes put()-ing
        # the same key never interleave on one tmp file; each composes
        # its entry privately and the two renames serialize at the
        # filesystem.  Whoever renames last wins — with identical
        # content, since the key is a content address — and the loser is
        # counted in ``lost_races``.
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(header + b"\n")
                handle.write(body)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
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
        ``<64-hex-key>.blk``, what :func:`batch_key` produces — so a
        foreign or quarantine-adjacent file dropped into the cache
        directory (``notes.blk``, tooling output, a hand-renamed
        ``.corrupt`` sibling, a v5 ``<key>.json`` entry) never inflates
        the entry count.
        """
        return sum(
            1 for p in self.root.glob("*.blk")
            if _ENTRY_NAME_RE.match(p.name)
        )

    def __repr__(self) -> str:
        return (
            f"SweepCache({str(self.root)!r}: {len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses / "
            f"{len(self.corrupt_keys)} corrupt this session)"
        )
