"""Tests for the sweep cache's corruption detection and quarantine.

The v5 on-disk format embeds a SHA-256 over the canonical serialization
of the packed columnar frame; these tests prove the checksum catches
real corruption
modes (torn writes, bit flips, semantic tampering) and that corrupt
entries are quarantined to ``<key>.corrupt`` — counted and preserved,
never silently re-simulated.
"""

import hashlib
import json

import pytest

from repro.core.cache import CACHE_FORMAT_VERSION, SweepCache
from repro.core.sweep import (
    SweepPlan,
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


class TestChecksumRoundtrip:
    def test_put_get_bit_identical(self, cache, records):
        assert decoded(cache.get("k")) == records

    def test_payload_carries_checksum(self, cache):
        payload = json.loads(cache.path_for("k").read_text())
        assert payload["version"] == CACHE_FORMAT_VERSION
        assert len(payload["sha256"]) == 64

    def test_new_entry_checksum_verifies(self, cache):
        payload = json.loads(cache.path_for("k").read_text())
        canonical = json.dumps(payload["frame"], sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
        assert payload["key"] == "k"
        assert hashlib.sha256(canonical).hexdigest() == payload["sha256"]

    def test_entry_in_whole_payload_layout_reads_back(self, tmp_path,
                                                      cache, records):
        # Entries written as one ``json.dumps`` of the whole payload (the
        # frame in default, unsorted spacing) stay readable.
        payload = json.loads(cache.path_for("k").read_text())
        legacy = SweepCache(tmp_path / "legacy")
        legacy.path_for("k").write_text(json.dumps({
            "version": payload["version"],
            "key": "k",
            "sha256": payload["sha256"],
            "frame": RecordBlock.from_payload(payload["frame"]).to_payload(),
        }))
        assert decoded(legacy.get("k")) == records
        assert legacy.corrupt_keys == []

    def test_put_entry_verified_in_place(self, cache, records,
                                         monkeypatch):
        # An entry in put's layout is checked over its stored frame
        # bytes: nothing is re-serialized to verify it.
        def refuse(payload):
            raise AssertionError("re-canonicalized a put-written entry")

        monkeypatch.setattr("repro.core.cache._canonical_payload", refuse)
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
        """Valid JSON with one altered runtime must still fail: the
        checksum covers frame *content*, not just parseability."""
        payload = json.loads(cache.path_for("k").read_text())
        runtimes = next(c for c in payload["frame"]["columns"]
                        if c["name"] == "runtimes")
        runtimes["data"][0] += 1.0
        cache.path_for("k").write_text(json.dumps(payload))
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    def test_digit_changed_in_stored_frame_quarantined(self, cache):
        """One runtime digit edited in place leaves valid JSON in put's
        layout; the in-place check must still catch it."""
        raw = cache.path_for("k").read_bytes()
        # canonical keys are sorted: a column's data precedes its name
        end = raw.index(b'"name":"runtimes"')
        at = raw.rindex(b'"data":[', 0, end) + len(b'"data":[')
        while not raw[at:at + 1].isdigit():
            at += 1
        digit = b"1" if raw[at:at + 1] != b"1" else b"2"
        cache.path_for("k").write_bytes(raw[:at] + digit + raw[at + 1:])
        json.loads(cache.path_for("k").read_bytes())  # still valid JSON
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    @pytest.mark.parametrize("forged_first", [True, False])
    def test_forged_header_frame_key_not_trusted(self, cache, records,
                                                 monkeypatch, forged_first):
        """A header carrying its own ``frame`` key leaves put's layout:
        the entry is parsed whole and re-canonicalized, so only a frame
        that matches the digest under the whole-document reading is
        ever decoded."""
        from repro.core import cache as cache_module

        raw = cache.path_for("k").read_bytes()
        cut = raw.rindex(b', "frame": ')
        real = raw[cut + len(b', "frame": '):-1]
        payload = json.loads(real)
        runtimes = next(c for c in payload["columns"]
                        if c["name"] == "runtimes")
        runtimes["data"][0] += 1.0
        forged = json.dumps(payload).encode("utf-8")
        # JSON's last duplicate key wins: the trailing frame is the one
        # a whole-document parse reads.
        first, last = (forged, real) if forged_first else (real, forged)
        cache.path_for("k").write_bytes(
            raw[:cut] + b', "frame": ' + first + b', "frame": ' + last
            + b"}"
        )
        canonicalized = []
        real_canonical = cache_module._canonical_payload
        monkeypatch.setattr(
            cache_module, "_canonical_payload",
            lambda p: canonicalized.append(1) or real_canonical(p),
        )
        got = cache.get("k")
        assert canonicalized, "the forged entry skipped re-canonicalization"
        if forged_first:
            assert decoded(got) == records
            assert cache.corrupt_keys == []
        else:
            assert got is None
            assert cache.corrupt_keys == ["k"]

    def test_non_dict_payload_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.path_for("junk").write_text("[1, 2, 3]")
        assert cache.get("junk") is None
        assert cache.corrupt_keys == ["junk"]

    def test_missing_checksum_field_quarantined(self, cache):
        payload = json.loads(cache.path_for("k").read_text())
        del payload["sha256"]
        cache.path_for("k").write_text(json.dumps(payload))
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    def test_reput_after_quarantine_recovers(self, cache, block, records):
        apply_cache_fault(cache.path_for("k"), "cache-bit-flip")
        assert cache.get("k") is None
        cache.put("k", block)
        assert decoded(cache.get("k")) == records


class TestMissVsCorruption:
    def test_version_mismatch_is_a_plain_miss(self, cache):
        """A stale format is expected after upgrades — it must NOT be
        flagged as corruption."""
        payload = json.loads(cache.path_for("k").read_text())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        cache.path_for("k").write_text(json.dumps(payload))
        assert cache.get("k") is None
        assert cache.corrupt_keys == []
        assert cache.path_for("k").exists()  # left in place

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


class TestPrefixPartitions:
    def _key(self, i):
        return f"{i:08x}" + "0" * 56

    def test_partition_count_validated(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SweepCache(tmp_path, n_partitions=0)

    def test_partition_for_agrees_with_the_shard_planner(self, tmp_path):
        from repro.resilience.sharding import partition_for_key

        cache = SweepCache(tmp_path, n_partitions=8)
        for i in range(32):
            assert cache.partition_for(self._key(i)) \
                == partition_for_key(self._key(i), 8)

    def test_non_hex_key_still_partitions(self, tmp_path):
        # Arbitrary keys (the tests use "k") hash into a partition
        # instead of erroring; the assignment is stable.
        cache = SweepCache(tmp_path, n_partitions=8)
        p = cache.partition_for("k")
        assert 0 <= p < 8
        assert cache.partition_for("k") == p

    def test_stats_break_entries_down_by_partition(self, tmp_path,
                                                   block):
        cache = SweepCache(tmp_path, n_partitions=4)
        keys = [self._key(i) for i in range(6)]
        for key in keys:
            cache.put(key, block)
        stats = cache.stats
        per_part = {row["partition"]: row["entries"]
                    for row in stats["partitions"]}
        assert sum(per_part.values()) == stats["entries"] == 6
        for key in keys:
            assert per_part[cache.partition_for(key)] >= 1

    def test_corruption_charged_to_the_owning_partition(self, tmp_path,
                                                        block):
        cache = SweepCache(tmp_path, n_partitions=4)
        good, bad = self._key(0), self._key(1)
        cache.put(good, block)
        cache.put(bad, block)
        apply_cache_fault(cache.path_for(bad), "cache-torn-write")
        cache.get(bad)
        rows = {row["partition"]: row for row in cache.stats["partitions"]}
        assert rows[cache.partition_for(bad)]["corrupt"] == 1
        assert rows[cache.partition_for(good)]["corrupt"] == 0
        assert sum(r["corrupt"] for r in rows.values()) == 1
