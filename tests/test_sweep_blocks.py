"""Tests for the one stored record form: packed batch blocks.

A sweep's records travel and rest as :class:`RecordBlock` batches —
through every backend, the fleet validator, the cache and
:class:`SweepResult` — and rows are decoded only when a caller reads
``SweepResult.records``.  :func:`check_sweep_block` stands in for the
full decode everywhere a block is accepted, so it must reject every
block decoding would.
"""

import sys

import numpy as np
import pytest

import repro.core.sweep as sweep_mod
from repro.arch.machines import get_machine
from repro.core.cache import SweepCache
from repro.core.dataset import records_to_table
from repro.core.sweep import (
    BatchSpec,
    SweepPlan,
    SweepRecord,
    SweepResult,
    _ClassPlans,
    _validate_batch_records,
    check_sweep_block,
    plan_batches,
    run_sweep,
    sweep_block_schema,
    sweep_block_to_records,
    sweep_records_to_block,
)
from repro.errors import FrameError
from repro.frame.columns import RecordBlock
from repro.resilience import RetryPolicy, SerialBackend
from repro.resilience.supervisor import SupervisedTask
from repro.runtime.icv import EnvConfig

PLAN = SweepPlan(arch="milan", workload_names=("cg", "ep"), scale="small",
                 repetitions=2, inputs_limit=2)


@pytest.fixture(scope="module")
def good_block():
    return run_sweep(PLAN).blocks[0]


def _tampered(block, column, value):
    """``block`` with row 0 of ``column`` set to the raw cell ``value``."""
    clone = RecordBlock.from_bytes(block.to_bytes())
    clone.columns[column].data[0] = value
    return clone


def _without(block, column):
    clone = RecordBlock.from_bytes(block.to_bytes())
    del clone.columns[column]
    return clone


#: Every defect the full-decode validator rejected, by name.
BAD_BLOCKS = {
    "wrong-schema": lambda b: _without(b, "suite"),
    "null-string-cell": lambda b: _tampered(b, "places", -1),
    "align-alloc-3": lambda b: _tampered(b, "align_alloc", 3),
    "align-alloc-4": lambda b: _tampered(b, "align_alloc", 4),
    "empty": lambda b: RecordBlock(sweep_block_schema(2)),
}


@pytest.fixture(params=sorted(BAD_BLOCKS))
def bad_block(request, good_block):
    return BAD_BLOCKS[request.param](good_block)


class TestCheckSweepBlock:
    def test_accepts_a_real_batch(self, good_block):
        check_sweep_block(good_block)
        assert _validate_batch_records(good_block) is None

    def test_accepts_the_unset_align_sentinel_and_powers_of_two(
            self, good_block):
        for value in (-1, 8, 64, 4096):
            check_sweep_block(_tampered(good_block, "align_alloc", value))

    def test_rejects_what_decoding_rejects(self, bad_block):
        with pytest.raises(FrameError):
            check_sweep_block(bad_block)
        with pytest.raises(FrameError):
            sweep_block_to_records(bad_block)

    def test_fleet_validator_books_corrupt_result(self, bad_block):
        backend = SerialBackend(
            lambda payload, attempt: bad_block,
            policy=RetryPolicy(max_retries=1, base_delay_s=0.0, seed=0),
            validate=_validate_batch_records,
        )
        task = SupervisedTask(task_id=0, index=0, payload=None,
                              timeout_s=10.0)
        assert list(backend.stream([task])) == [None]
        (failure,) = backend.ledger.build_report().batches
        assert {a.kind for a in failure.attempts} == {"corrupt-result"}
        assert not failure.recovered

    def test_non_block_result_is_corrupt(self, good_block):
        assert "corrupt payload" in _validate_batch_records(
            sweep_block_to_records(good_block))

    def test_cache_quarantines_the_entry(self, tmp_path, bad_block):
        cache = SweepCache(tmp_path)
        cache.put("k", bad_block)
        assert cache.get("k") is None
        assert cache.corrupt_keys == ["k"]
        assert cache.corrupt_path_for("k").exists()


@pytest.fixture
def decoded_blocks(monkeypatch):
    """Ids of the blocks passed to ``sweep_block_to_records``, wherever
    a ``repro`` module binds it."""
    real = sweep_mod.sweep_block_to_records
    calls: list[int] = []

    def counting(block):
        calls.append(id(block))
        return real(block)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None and getattr(
                module, "sweep_block_to_records", None) is real:
            monkeypatch.setattr(module, "sweep_block_to_records", counting)
    return calls


class TestRowsDecodedOnDemand:
    def test_no_decode_until_records_are_read(self, tmp_path,
                                              decoded_blocks):
        pooled = run_sweep(PLAN, n_processes=2, backend="pool",
                           cache=SweepCache(tmp_path))
        assert pooled.backend == "pool" and pooled.n_computed_batches > 1
        assert decoded_blocks == []

        warm = run_sweep(PLAN, cache=SweepCache(tmp_path))
        assert warm.n_computed_batches == 0
        assert warm.n_cached_batches == len(warm.blocks)
        assert decoded_blocks == []

        table = records_to_table(warm.block)
        assert table.num_rows == warm.n_samples
        assert decoded_blocks == []

        records = warm.records
        # The merged block is decoded, once, then kept.
        assert decoded_blocks == [id(warm.block)]
        assert warm.records is records
        assert decoded_blocks == [id(warm.block)]
        assert pooled.records == records

    def test_equal_configs_decode_to_one_object(self):
        result = run_sweep(PLAN)
        records = result.records
        per_block = [r for b in result.blocks
                     for r in sweep_block_to_records(b)]
        assert records == per_block
        assert len(result.blocks) > 1
        distinct = {r.config for r in records}
        assert len({id(r.config) for r in records}) == len(distinct)
        assert len(distinct) < len(records)
        assert run_sweep(PLAN).records == records

    def test_an_empty_result_has_no_records(self):
        assert SweepResult(plan=PLAN).records == []

    def test_counts_read_the_blocks(self):
        result = run_sweep(PLAN)
        assert result.n_samples == len(result.records) == len(result.block)
        assert result.n_measurements == sum(
            len(r.runtimes) for r in result.records)
        assert result.apps() == ["cg", "ep"]


@pytest.fixture(scope="module", params=["milan", "skylake", "a64fx"])
def seed0_sweeps(request):
    """A seed-0 small sweep of one machine, serial and over a 2-process
    pool."""
    plan = SweepPlan(arch=request.param, scale="small", repetitions=3,
                     seed=0)
    return run_sweep(plan), run_sweep(plan, n_processes=2, backend="pool")


class TestByteCodec:
    """Every batch block of real sweeps survives the cache's codec."""

    def test_roundtrip_keeps_buffers_and_strings(self, seed0_sweeps):
        serial, _ = seed0_sweeps
        for block in serial.blocks:
            clone = RecordBlock.from_bytes(block.to_bytes())
            assert clone.strings.to_list() == block.strings.to_list()
            assert clone.schema == block.schema
            for name, col in block.columns.items():
                assert clone.columns[name].data == col.data

    def test_serial_and_pool_blocks_encode_identically(self, seed0_sweeps):
        serial, pooled = seed0_sweeps
        assert pooled.backend == "pool"
        assert len(serial.blocks) == len(pooled.blocks)
        for a, b in zip(serial.blocks, pooled.blocks):
            assert a.to_bytes() == b.to_bytes()


def _repacked(block):
    """``block`` decoded to records and packed by the record packer."""
    return sweep_records_to_block(sweep_block_to_records(block))


class TestClassPlanPacking:
    """A batch block packed from its class plan equals the record
    packer's block of the same records, byte for byte."""

    @pytest.mark.parametrize("arch", ["milan", "skylake", "a64fx"])
    @pytest.mark.parametrize("repetitions", [3, 1])
    @pytest.mark.parametrize("prune", [True, False])
    def test_every_seed0_batch_packs_like_its_records(
            self, arch, repetitions, prune):
        result = run_sweep(SweepPlan(arch=arch, scale="small",
                                     repetitions=repetitions, seed=0,
                                     prune=prune))
        assert len(result.blocks) == len(plan_batches(result.plan))
        for block in result.blocks:
            assert block.to_bytes() == _repacked(block).to_bytes()

    def test_des_batch_packs_like_its_records(self):
        plan = SweepPlan(arch="a64fx", workload_names=("sort",),
                         scale="small", repetitions=2, inputs_limit=1,
                         fidelity="des")
        (block,) = run_sweep(plan).blocks
        assert block.to_bytes() == _repacked(block).to_bytes()

    def test_constant_string_equal_to_a_config_value_interns_once(self):
        machine = get_machine("milan")
        configs = [
            EnvConfig(schedule="dynamic", align_alloc=64),
            EnvConfig(schedule="static", places="cores"),
            EnvConfig(num_threads=4, blocktime="0"),
            EnvConfig(schedule="static", proc_bind="close"),
        ]
        plans = _ClassPlans(SweepPlan(arch="milan"), machine, configs)
        batch = BatchSpec("cg", "npb", "static", 8)
        class_plan = plans.at(batch.nthreads)
        runtimes = np.arange(1.0, 1.0 + 3 * len(configs)).reshape(-1, 3)
        block = class_plan.pack("milan", batch, runtimes)

        records = [
            SweepRecord("milan", "cg", "npb", "static", 8, config,
                        tuple(row))
            for config, row in zip(class_plan.configs, runtimes.tolist())
        ]
        assert block.to_bytes() == sweep_records_to_block(records).to_bytes()
        # First interned at its first column, input_size, and shared by
        # the config columns after it.
        strings = block.strings.to_list()
        assert strings.index("static") == 3
        assert strings.count("static") == 1
        assert list(block.columns["schedule"].data).count(3) == 2
