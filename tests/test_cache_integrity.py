"""Tests for the sweep cache's corruption detection and quarantine.

A v7 entry is a JSON header line (``version``, ``key``, ``sha256``)
followed by the packed block's byte codec, and the SHA-256 covers every
byte that is decoded; these tests prove the checksum and the decoder
catch real corruption modes (torn writes, bit flips, semantic
tampering, malformed but re-digested bytes) and that corrupt entries
are quarantined to ``<key>.corrupt`` — counted and preserved, never
silently re-simulated.
"""

import hashlib
import json
import struct

import pytest

from repro.core.cache import CACHE_FORMAT_VERSION, SweepCache
from repro.core.sweep import (
    SweepPlan,
    plan_batches,
    run_sweep,
    sweep_block_to_records,
    sweep_records_to_block,
)
from repro.frame.columns import RecordBlock
from repro.resilience.chaos import apply_cache_fault


@pytest.fixture(scope="module")
def records():
    plan = SweepPlan(arch="milan", workload_names=("cg",), scale="small",
                     repetitions=2)
    return run_sweep(plan).records


@pytest.fixture(scope="module")
def block(records):
    return sweep_records_to_block(records)


@pytest.fixture
def cache(tmp_path, block):
    cache = SweepCache(tmp_path)
    cache.put("k", block)
    return cache


def decoded(block):
    """A cache hit's rows (``get`` returns the packed block)."""
    return sweep_block_to_records(block)


def split_entry(cache, key):
    """An entry's parsed header line and its body (the block bytes)."""
    line, body = cache.path_for(key).read_bytes().split(b"\n", 1)
    return json.loads(line), body


def write_entry(cache, key, body, **header):
    """Store ``body`` under ``key`` behind a header whose ``sha256`` is
    recomputed, so only the decoder can reject a malformed body."""
    fields = {"version": CACHE_FORMAT_VERSION, "key": key,
              "sha256": hashlib.sha256(body).hexdigest(), **header}
    cache.path_for(key).write_bytes(
        json.dumps(fields).encode("utf-8") + b"\n" + body)


def with_block_header(body, edit):
    """Block bytes with ``edit`` applied to the block's header line."""
    line, buffers = body.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    return json.dumps(header).encode("utf-8") + b"\n" + buffers


def flip_bit(data, at):
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


class TestChecksumRoundtrip:
    def test_put_get_bit_identical(self, cache, records):
        assert decoded(cache.get("k")) == records

    def test_payload_carries_checksum(self, cache):
        header, _ = split_entry(cache, "k")
        assert header["version"] == CACHE_FORMAT_VERSION == 7
        assert len(header["sha256"]) == 64
        assert cache.path_for("k").name == "k.blk"

    def test_new_entry_checksum_verifies(self, cache, block):
        header, body = split_entry(cache, "k")
        assert header["key"] == "k"
        assert body == block.to_bytes()
        assert hashlib.sha256(body).hexdigest() == header["sha256"]

    def test_put_entry_verified_in_place(self, cache, records,
                                         monkeypatch):
        # ``get`` checks the stored bytes: nothing is re-encoded to
        # verify an entry.
        def refuse(block):
            raise AssertionError("re-encoded a stored entry")

        monkeypatch.setattr(RecordBlock, "to_bytes", refuse)
        assert decoded(cache.get("k")) == records
        assert cache.corrupt_keys == []

    def test_fsync_mode_roundtrips(self, tmp_path, block, records):
        cache = SweepCache(tmp_path / "durable", fsync=True)
        cache.put("k", block)
        assert decoded(cache.get("k")) == records


class TestQuarantine:
    @pytest.mark.parametrize("fault", ["cache-torn-write",
                                       "cache-bit-flip"])
    def test_injected_fault_detected_and_quarantined(self, cache, fault):
        apply_cache_fault(cache.path_for("k"), fault)
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]
        # The entry moved aside: the poisoned bytes stay inspectable,
        # the live path is free for the recomputed batch.
        assert not cache.path_for("k").exists()
        assert cache.corrupt_path_for("k").exists()

    def test_semantic_tamper_caught_by_checksum(self, cache):
        """One altered runtime still decodes to a valid block, so only
        the checksum can catch it."""
        header, body = split_entry(cache, "k")
        # runtimes is the last column: its last cell ends the body.
        body = body[:-8] + struct.pack("=d", 1.0 + struct.unpack(
            "=d", body[-8:])[0])
        RecordBlock.from_bytes(body)  # still decodes
        write_entry(cache, "k", body, sha256=header["sha256"])
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    def test_digit_changed_in_stored_frame_quarantined(self, cache):
        """One digit of the block header's row count edited in place."""
        raw = cache.path_for("k").read_bytes()
        at = raw.index(b'{"n":') + len(b'{"n":')
        digit = b"1" if raw[at:at + 1] != b"1" else b"2"
        cache.path_for("k").write_bytes(raw[:at] + digit + raw[at + 1:])
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    @pytest.mark.parametrize("where", ["entry-header", "block-header",
                                       "strings", "column-buffer"])
    def test_bit_flip_quarantined(self, cache, where):
        raw = cache.path_for("k").read_bytes()
        at = {
            "entry-header": raw.index(b'"sha256"') + len(b'"sha256": "'),
            "block-header": raw.index(b'"schema"') + 3,
            "strings": raw.index(b'"strings":["') + len(b'"strings":["'),
            "column-buffer": len(raw) - 20,
        }[where]
        cache.path_for("k").write_bytes(flip_bit(raw, at))
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    def test_trailing_bytes_quarantined(self, cache):
        with open(cache.path_for("k"), "ab") as handle:
            handle.write(b"\0")
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    def test_entry_under_another_key_quarantined(self, cache):
        cache.path_for("k").rename(cache.path_for("other"))
        assert cache.get("other") is None
        assert cache.corrupt_keys == ["other"]

    @pytest.mark.parametrize("malform", [
        lambda b: with_block_header(
            b, lambda h: h["schema"][-1].__setitem__(2, "x")),
        lambda b: with_block_header(
            b, lambda h: h["schema"][0].__setitem__(1, "f4")),
        lambda b: with_block_header(b, lambda h: h.update(n=-1)),
        lambda b: with_block_header(b, lambda h: h.update(n=1.5)),
        lambda b: with_block_header(
            b, lambda h: h["strings"].__setitem__(1, h["strings"][0])),
        lambda b: b.replace(b"\n" + struct.pack("=q", 0),
                            b"\n" + struct.pack("=q", 10**6), 1),
        lambda b: b[:-1],
        lambda b: b + b"\0",
    ], ids=["non-int-width", "unknown-kind", "negative-n", "non-int-n",
            "duplicate-string", "string-code-out-of-range",
            "buffer-one-byte-short", "one-trailing-byte"])
    def test_digest_valid_malformed_block_quarantined(self, cache, malform):
        """Each body is re-digested, so only the decoder can reject it:
        ``get`` must quarantine, never raise."""
        _, body = split_entry(cache, "k")
        bad = malform(body)
        assert bad != body
        write_entry(cache, "k", bad)
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]
        assert cache.corrupt_path_for("k").exists()

    def test_non_dict_payload_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.path_for("junk").write_text("[1, 2, 3]")
        cache.path_for("list").write_text("[1, 2, 3]\n{}")
        assert cache.get("junk") is None
        assert cache.get("list") is None
        assert cache.corrupt_keys == ["junk", "list"]

    def test_missing_checksum_field_quarantined(self, cache):
        header, body = split_entry(cache, "k")
        del header["sha256"]
        cache.path_for("k").write_bytes(
            json.dumps(header).encode("utf-8") + b"\n" + body)
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    def test_reput_after_quarantine_recovers(self, cache, block, records):
        apply_cache_fault(cache.path_for("k"), "cache-bit-flip")
        assert cache.get("k") is None
        cache.put("k", block)
        assert decoded(cache.get("k")) == records


class TestMissVsCorruption:
    def test_version_mismatch_is_quarantined(self, cache):
        """The format version is slot 0 of the key, so an entry of
        another version never sits under a current key: a mismatched
        ``version`` in a ``.blk`` header is corruption."""
        _, body = split_entry(cache, "k")
        write_entry(cache, "k", body, version=CACHE_FORMAT_VERSION + 1)
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]
        assert cache.corrupt_path_for("k").exists()
        assert not cache.path_for("k").exists()

    def test_version_digit_flip_in_sweep_entry_quarantined(self, tmp_path):
        """Flip the ``version`` digit (7 -> 6) of a real batch entry and
        re-run the sweep: the batch is re-simulated, and the flip is
        reported as corruption, not swallowed as a stale-format miss."""
        plan = SweepPlan(arch="milan", workload_names=("cg",),
                         scale="small", repetitions=2, inputs_limit=1)
        cache = SweepCache(tmp_path)
        fresh = run_sweep(plan, cache=cache)
        key = sorted(p.stem for p in cache.root.glob("*.blk"))[0]
        raw = cache.path_for(key).read_bytes()
        digit = f'"version": {CACHE_FORMAT_VERSION}'.encode("utf-8")
        at = raw.index(digit) + len(digit) - 1
        cache.path_for(key).write_bytes(flip_bit(raw, at))
        assert cache.path_for(key).read_bytes()[at:at + 1] == (
            str(CACHE_FORMAT_VERSION ^ 1).encode("utf-8"))
        reread = SweepCache(tmp_path)
        result = run_sweep(plan, cache=reread)
        assert result.records == fresh.records
        assert reread.corrupt_keys == [key]
        assert reread.corrupt_path_for(key).exists()
        assert result.n_computed_batches == 1

    def test_v5_entries_are_inert(self, tmp_path):
        """A directory of v5 ``<key>.json`` entries is re-swept: none is
        read, none is counted, none is quarantined."""
        plan = SweepPlan(arch="milan", workload_names=("cg",),
                         scale="small", repetitions=2, inputs_limit=1)
        warm = SweepCache(tmp_path / "warm")
        fresh = run_sweep(plan, cache=warm)
        v5 = SweepCache(tmp_path / "v5")
        for entry in warm.root.glob("*.blk"):
            (v5.root / (entry.stem + ".json")).write_text(json.dumps(
                {"version": 5, "key": entry.stem, "sha256": "0" * 64,
                 "frame": {}}))
        assert len(v5) == 0
        result = run_sweep(plan, cache=v5)
        assert result.records == fresh.records
        assert result.n_cached_batches == 0
        assert result.n_computed_batches == len(plan_batches(plan))
        assert v5.corrupt_keys == []
        assert len(v5) == len(plan_batches(plan))
        assert len(list(v5.root.glob("*.json"))) == len(v5)

    def test_absent_key_is_a_plain_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.corrupt_keys == []


class TestStats:
    def test_counters_track_every_outcome(self, cache, records):
        cache.get("k")                                     # hit
        cache.get("absent")                                # miss
        apply_cache_fault(cache.path_for("k"), "cache-torn-write")
        cache.get("k")                                     # corrupt
        stats = cache.stats
        assert stats["hits"] == 1
        assert stats["misses"] == 2      # absent + quarantined
        assert stats["writes"] == 1
        assert stats["corrupt"] == 1
        assert stats["corrupt_keys"] == ("k",)

    def test_repr_mentions_corruption(self, cache):
        apply_cache_fault(cache.path_for("k"), "cache-bit-flip")
        cache.get("k")
        assert "1 corrupt" in repr(cache)
