"""Tests for the persistent sweep batch cache (resume semantics)."""

import json
from dataclasses import replace

import pytest

import repro.core.sweep as sweep_mod
from repro.arch.machines import get_machine
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    CACHE_KEY_EXCLUDED,
    CACHE_KEY_FIELDS,
    SweepCache,
    batch_key,
    grid_fingerprint,
    key_material,
    machine_fingerprint,
)
from repro.core.envspace import EnvSpace, chunked_schedule_variables
from repro.core.sweep import (
    BatchSpec,
    SweepPlan,
    plan_batches,
    run_sweep,
    sweep_block_to_records,
    sweep_records_to_block,
)


def _edit_table(table, **change):
    return lambda machine: replace(
        machine, **{table: replace(getattr(machine, table), **change)}
    )


def _edit_first_drift(machine):
    drift = machine.noise.drift
    return replace(machine, noise=replace(
        machine.noise, drift=(drift[0] * 1.01, *drift[1:])
    ))


#: One edit per machine table: the noise model's sigma and one drift
#: entry, one cost field, one power field.
TABLE_EDITS = {
    "noise-sigma": _edit_table("noise", sigma=0.3),
    "noise-drift": _edit_first_drift,
    "costs": _edit_table("costs", wake_latency_us=12.5),
    "power": _edit_table("power", uncore_w=101.0),
}


@pytest.fixture
def plan():
    return SweepPlan(arch="milan", workload_names=("cg",), scale="small",
                     repetitions=2)


@pytest.fixture
def grid_fp(plan):
    machine = get_machine(plan.arch)
    return grid_fingerprint(EnvSpace().grid(machine, plan.scale,
                                            seed=plan.seed))


@pytest.fixture
def machine_fp(plan):
    return machine_fingerprint(get_machine(plan.arch))


@pytest.fixture
def counted_batches(monkeypatch):
    """Count (and pass through) every batch execution in this process."""
    calls = []
    real = sweep_mod._execute_batch

    def counting(plans, batch, drift, jitter):
        calls.append(batch)
        return real(plans, batch, drift, jitter)

    monkeypatch.setattr(sweep_mod, "_execute_batch", counting)
    return calls


class TestBatchKey:
    def test_stable_across_calls(self, plan, grid_fp, machine_fp):
        batch = BatchSpec("cg", "NPB", "A", 96)
        assert batch_key(plan, grid_fp, machine_fp, batch) == batch_key(
            plan, grid_fp, machine_fp, batch
        )

    @pytest.mark.parametrize("change", [
        dict(arch="skylake"), dict(scale="medium"), dict(repetitions=3),
        dict(seed=1), dict(fidelity="des"),
    ])
    def test_sensitive_to_plan_identity(self, plan, grid_fp, machine_fp,
                                        change):
        from dataclasses import replace

        batch = BatchSpec("cg", "NPB", "A", 96)
        assert batch_key(plan, grid_fp, machine_fp, batch) != batch_key(
            replace(plan, **change), grid_fp, machine_fp, batch
        )

    def test_sensitive_to_grid(self, plan, grid_fp, machine_fp):
        batch = BatchSpec("cg", "NPB", "A", 96)
        machine = get_machine("milan")
        other_fp = grid_fingerprint(EnvSpace().grid(machine, "small", seed=9))
        assert other_fp != grid_fp
        assert batch_key(plan, grid_fp, machine_fp, batch) != batch_key(
            plan, other_fp, machine_fp, batch
        )

    def test_sensitive_to_structural_grid_change(self, plan, machine_fp,
                                                 grid_fp):
        """Changing the env space itself (extra swept variables) changes
        the fingerprint, so every batch key misses."""
        batch = BatchSpec("cg", "NPB", "A", 96)
        machine = get_machine(plan.arch)
        chunked = EnvSpace(chunked_schedule_variables())
        other_fp = grid_fingerprint(
            chunked.grid(machine, plan.scale, seed=plan.seed)
        )
        assert other_fp != grid_fp
        assert batch_key(plan, grid_fp, machine_fp, batch) != batch_key(
            plan, other_fp, machine_fp, batch
        )

    def test_sensitive_to_machine_table(self, plan, grid_fp, machine_fp):
        """Editing the machine model (any topology field) must miss."""
        from dataclasses import replace

        batch = BatchSpec("cg", "NPB", "A", 96)
        machine = get_machine(plan.arch)
        for change in (dict(clock_ghz=machine.clock_ghz * 2),
                       dict(n_cores=machine.n_cores // 2,
                            cores_per_llc=machine.cores_per_llc),
                       dict(numa_penalty_cross_socket=9.9)):
            other_fp = machine_fingerprint(replace(machine, **change))
            assert other_fp != machine_fp
            assert batch_key(plan, grid_fp, machine_fp, batch) != batch_key(
                plan, grid_fp, other_fp, batch
            )

    def test_sensitive_to_cost_table(self, plan, machine_fp):
        """Recalibrating the arch's runtime cost table must miss."""
        from dataclasses import replace

        from repro.arch.costs import scale_costs

        machine = get_machine(plan.arch)
        recalibrated = replace(machine,
                               costs=scale_costs(machine.costs, 2.0))
        assert machine_fingerprint(recalibrated) != machine_fp

    @pytest.mark.parametrize("edit", sorted(TABLE_EDITS))
    def test_sensitive_to_every_machine_table(self, plan, grid_fp,
                                              machine_fp, edit):
        """A noise, cost or power edit changes the fingerprint and so
        every batch key of the plan."""
        other_fp = machine_fingerprint(
            TABLE_EDITS[edit](get_machine(plan.arch))
        )
        assert other_fp != machine_fp
        for batch in plan_batches(plan):
            assert batch_key(plan, grid_fp, machine_fp, batch) != batch_key(
                plan, grid_fp, other_fp, batch
            )

    def test_version_bump_changes_keys(self, plan, grid_fp, machine_fp,
                                       monkeypatch):
        import repro.core.cache as cache_mod

        batch = BatchSpec("cg", "NPB", "A", 96)
        before = batch_key(plan, grid_fp, machine_fp, batch)
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION",
                            CACHE_FORMAT_VERSION + 1)
        assert cache_mod.batch_key(plan, grid_fp, machine_fp,
                                   batch) != before

    def test_sensitive_to_batch_identity(self, plan, grid_fp, machine_fp):
        a = BatchSpec("cg", "NPB", "A", 96)
        b = BatchSpec("cg", "NPB", "A", 48)
        assert batch_key(plan, grid_fp, machine_fp, a) != batch_key(
            plan, grid_fp, machine_fp, b
        )

    def test_insensitive_to_batch_selection_fields(self, plan, grid_fp,
                                                   machine_fp):
        """workload_names / inputs_limit select batches, not contents —
        a capped or subset sweep must warm the cache for the full one."""
        from dataclasses import replace

        batch = BatchSpec("cg", "NPB", "A", 96)
        widened = replace(plan, workload_names=None, inputs_limit=1)
        assert batch_key(plan, grid_fp, machine_fp, batch) == batch_key(
            widened, grid_fp, machine_fp, batch
        )


class TestKeyMaterial:
    """The machine-readable key declaration the dependency lint (plane
    5, KEY003) checks the evaluation cone's read-set against."""

    def test_key_fields_declares_every_identity_slot(self):
        assert SweepCache.key_fields() == CACHE_KEY_FIELDS
        assert CACHE_KEY_FIELDS[0] == "format_version"
        assert {"grid_fingerprint", "machine_fingerprint"} <= set(
            CACHE_KEY_FIELDS
        )

    def test_excluded_fields_carry_reasons_and_do_not_overlap(self):
        assert all(CACHE_KEY_EXCLUDED.values())
        assert not set(CACHE_KEY_EXCLUDED) & set(CACHE_KEY_FIELDS)

    def test_key_material_names_exactly_what_batch_key_hashes(
        self, plan, grid_fp, machine_fp
    ):
        import hashlib

        batch = BatchSpec("cg", "NPB", "A", 96)
        material = key_material(plan, grid_fp, machine_fp, batch)
        assert tuple(material) == CACHE_KEY_FIELDS
        identity = tuple(material.values())
        digest = hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()
        assert digest == batch_key(plan, grid_fp, machine_fp, batch)

    @pytest.mark.parametrize("change,slot", [
        (dict(fidelity="des"), "plan.fidelity"),
        (dict(seed=3), "plan.seed"),
        (dict(arch="skylake"), "plan.arch"),
    ])
    def test_plan_change_lands_in_its_named_slot(self, plan, grid_fp,
                                                 machine_fp, change, slot):
        from dataclasses import replace

        batch = BatchSpec("cg", "NPB", "A", 96)
        base = key_material(plan, grid_fp, machine_fp, batch)
        other = key_material(replace(plan, **change), grid_fp, machine_fp,
                             batch)
        assert [k for k in CACHE_KEY_FIELDS if base[k] != other[k]] == [slot]
        assert batch_key(plan, grid_fp, machine_fp, batch) != batch_key(
            replace(plan, **change), grid_fp, machine_fp, batch
        )

    def test_fingerprints_land_in_their_named_slots(self, plan, grid_fp,
                                                    machine_fp):
        batch = BatchSpec("cg", "NPB", "A", 96)
        base = key_material(plan, grid_fp, machine_fp, batch)
        regrid = key_material(plan, "0" * 64, machine_fp, batch)
        assert [k for k in CACHE_KEY_FIELDS
                if base[k] != regrid[k]] == ["grid_fingerprint"]
        remachine = key_material(plan, grid_fp, "1" * 64, batch)
        assert [k for k in CACHE_KEY_FIELDS
                if base[k] != remachine[k]] == ["machine_fingerprint"]


class TestSweepCacheStore:
    def test_roundtrip_bit_identical(self, tmp_path, plan):
        result = run_sweep(plan)
        cache = SweepCache(tmp_path / "c")
        cache.put("k1", result.block)
        assert sweep_block_to_records(cache.get("k1")) == result.records
        assert cache.hits == 1 and cache.writes == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        (tmp_path / "bad.blk").write_text("{ torn", encoding="utf-8")
        assert cache.get("bad") is None
        assert cache.corrupt_keys == ["bad"]

    def test_version_mismatch_is_quarantined(self, tmp_path, plan):
        cache = SweepCache(tmp_path)
        cache.put("k", sweep_records_to_block(run_sweep(plan).records[:1]))
        line, body = (tmp_path / "k.blk").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["version"] = CACHE_FORMAT_VERSION + 1
        (tmp_path / "k.blk").write_bytes(
            json.dumps(header).encode("utf-8") + b"\n" + body)
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]

    def test_len_counts_entries(self, tmp_path, plan):
        cache = SweepCache(tmp_path)
        assert len(cache) == 0
        cache.put("0" * 64,
                  sweep_records_to_block(run_sweep(plan).records[:1]))
        assert len(cache) == 1

    def test_len_ignores_foreign_files(self, tmp_path, plan):
        """Only well-formed ``<64-hex-key>.blk`` names are entries: a
        stray file, a v5 ``<key>.json`` entry or a short test key must
        not inflate ``len(cache)`` / ``stats['entries']``."""
        cache = SweepCache(tmp_path)
        cache.put("1" * 64,
                  sweep_records_to_block(run_sweep(plan).records[:1]))
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        (tmp_path / "README.json").write_text("[]", encoding="utf-8")
        (tmp_path / "notes.blk").write_text("{}", encoding="utf-8")
        (tmp_path / ("6" * 64 + ".json")).write_text("{}",
                                                     encoding="utf-8")
        (tmp_path / ("2" * 64 + ".corrupt")).write_text("x",
                                                        encoding="utf-8")
        assert len(cache) == 1
        assert cache.stats["entries"] == 1

    def test_overwrite_of_live_entry_counts_as_lost_race(self, tmp_path,
                                                         plan):
        """Two writers racing on one content address both rename into
        place; whoever lands second is the race loser.  The entry stays
        intact (identical content either way) but the loser is visible
        in ``stats['lost_races']`` so concurrent shard overlap can be
        quantified."""
        cache = SweepCache(tmp_path)
        records = run_sweep(plan).records[:1]
        block = sweep_records_to_block(records)
        cache.put("3" * 64, block)
        assert cache.stats["lost_races"] == 0
        cache.put("3" * 64, block)
        assert cache.stats["lost_races"] == 1
        assert sweep_block_to_records(cache.get("3" * 64)) == records
        assert len(cache) == 1 and cache.writes == 2

    def test_distinct_keys_never_count_as_races(self, tmp_path, plan):
        cache = SweepCache(tmp_path)
        block = sweep_records_to_block(run_sweep(plan).records[:1])
        cache.put("4" * 64, block)
        cache.put("5" * 64, block)
        assert cache.stats["lost_races"] == 0
        assert cache.stats["writes"] == 2


class TestRunSweepResume:
    def test_second_run_resimulates_zero_batches(self, tmp_path, plan,
                                                 counted_batches):
        first = run_sweep(plan, cache=tmp_path / "cache")
        n_batches = len(plan_batches(plan))
        assert len(counted_batches) == n_batches
        assert first.n_computed_batches == n_batches

        counted_batches.clear()
        again = run_sweep(plan, cache=tmp_path / "cache")
        assert counted_batches == []
        assert again.n_computed_batches == 0
        assert again.n_cached_batches == n_batches
        assert again.records == first.records

    @pytest.mark.parametrize("edit", sorted(TABLE_EDITS))
    def test_table_edit_misses_a_warm_cache(self, tmp_path, plan, edit,
                                            monkeypatch):
        """A warm cache must not serve records of the machine as it was:
        after an edit every batch is recomputed, and the sweep equals an
        uncached one of the edited machine."""
        from repro.arch.machines import ALL_MACHINES

        cache = tmp_path / "cache"
        before = run_sweep(plan, cache=cache)
        monkeypatch.setitem(ALL_MACHINES, plan.arch,
                            TABLE_EDITS[edit](ALL_MACHINES[plan.arch]))
        again = run_sweep(plan, cache=cache)
        assert again.n_cached_batches == 0
        assert again.n_computed_batches == len(plan_batches(plan))
        uncached = run_sweep(plan)
        assert again.block.to_bytes() == uncached.block.to_bytes()
        if edit != "power":  # power is not in the records
            assert again.block.to_bytes() != before.block.to_bytes()

    def test_resume_mid_sweep_computes_only_remainder(self, tmp_path, plan,
                                                      counted_batches):
        """An interrupted sweep (modeled by a capped one) resumes where it
        stopped: only uncached batches are simulated."""
        from dataclasses import replace

        cache = SweepCache(tmp_path)
        run_sweep(replace(plan, inputs_limit=2), cache=cache)
        counted_batches.clear()

        full = run_sweep(plan, cache=cache)
        n_batches = len(plan_batches(plan))
        assert len(counted_batches) == n_batches - 2
        assert full.n_cached_batches == 2
        assert full.records == run_sweep(plan).records

    def test_deleted_entry_recomputed(self, tmp_path, plan, counted_batches):
        cache = SweepCache(tmp_path)
        run_sweep(plan, cache=cache)
        victim = next(iter(cache.root.glob("*.blk")))
        victim.unlink()
        counted_batches.clear()
        run_sweep(plan, cache=cache)
        assert len(counted_batches) == 1

    def test_parallel_cached_and_resumed_match_serial(self, tmp_path):
        plan = SweepPlan(arch="a64fx", workload_names=("sort", "strassen"),
                         scale="small", repetitions=2, inputs_limit=2)
        serial = run_sweep(plan)

        # Cold parallel run populating the cache.
        cold = run_sweep(plan, n_processes=2, cache=tmp_path / "c")
        assert cold.records == serial.records
        assert cold.n_computed_batches == len(plan_batches(plan))

        # Partially warmed cache (mid-sweep interruption): drop one entry.
        cache = SweepCache(tmp_path / "c")
        next(iter(cache.root.glob("*.blk"))).unlink()
        resumed = run_sweep(plan, n_processes=2, cache=cache)
        assert resumed.records == serial.records
        assert resumed.n_cached_batches == len(plan_batches(plan)) - 1

        # Fully warmed parallel run: everything from the cache.
        warm = run_sweep(plan, n_processes=2, cache=cache)
        assert warm.records == serial.records
        assert warm.n_computed_batches == 0

    def test_machine_table_change_invalidates_sweep_cache(
        self, tmp_path, plan, counted_batches, monkeypatch
    ):
        """An edited machine model must re-simulate every batch rather
        than serve records computed under the old model."""
        from dataclasses import replace

        run_sweep(plan, cache=tmp_path)
        n_batches = len(plan_batches(plan))
        counted_batches.clear()

        real_machine = get_machine(plan.arch)
        recalibrated = replace(real_machine,
                               clock_ghz=real_machine.clock_ghz * 1.5)
        monkeypatch.setattr(sweep_mod, "get_machine",
                            lambda name: recalibrated)
        again = run_sweep(plan, cache=tmp_path)
        assert len(counted_batches) == n_batches
        assert again.n_cached_batches == 0

    def test_cache_accepts_str_path(self, tmp_path, plan):
        result = run_sweep(plan, cache=str(tmp_path / "strcache"))
        assert result.n_computed_batches > 0
        assert (tmp_path / "strcache").is_dir()

    def test_progress_fires_for_cached_batches_too(self, tmp_path, plan):
        run_sweep(plan, cache=tmp_path)
        calls = []
        run_sweep(plan, cache=tmp_path,
                  progress=lambda *args: calls.append(args))
        n = len(plan_batches(plan))
        assert [c[0] for c in calls] == list(range(1, n + 1))
