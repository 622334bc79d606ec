"""Tests for the verification subsystem (``repro.check``).

Runs under the ``check`` marker so ``pytest -m check`` exercises exactly
the machinery behind ``repro-omp check`` — plus fault-injection tests
proving each checker actually *catches* the bug class it guards against
(a checker that cannot fail is not a check).
"""

import dataclasses
import json

import pytest

import repro.check.invariants as invariants_mod
from repro.check import (
    CheckResult,
    StealOrderAuditor,
    bless_golden_traces,
    check_loop_iteration_coverage,
    check_schedule_chunk_coverage,
    check_work_stealing_conservation,
    check_work_stealing_replay,
    columnar_pipeline_parity,
    differential_parity,
    golden_trace_check,
    pruning_parity,
    relation_blocktime_bracketing,
    relation_cost_scaling,
    relation_default_speedup_unity,
    relation_serial_phase_threads,
    resilience_degrade_parity,
    run_all,
    run_check,
    run_suite,
    sharded_execution_parity,
)
from repro.check.differential import _require_same_block
from repro.check.runner import SUITES, format_results, write_report
from repro.core.sweep import sweep_block_to_records, sweep_records_to_block
from repro.cli import main
from repro.desim.stealing import WorkStealingSimulator
from repro.errors import CheckFailure
from repro.frame.columns import RecordBlock
from repro.runtime.schedule import iterate_chunks

pytestmark = pytest.mark.check


# ----------------------------------------------------------------------
# The run_check harness contract
# ----------------------------------------------------------------------
class TestRunCheckHarness:
    def test_dict_return_passes_with_data(self):
        result = run_check("x", "s", lambda: {"details": "ok", "n": 3})
        assert result.passed and result.details == "ok"
        assert result.data == {"n": 3}
        assert result.suite == "s" and result.duration_s >= 0

    def test_str_and_none_returns_pass(self):
        assert run_check("x", "s", lambda: "fine").details == "fine"
        assert run_check("x", "s", lambda: None).passed

    def test_check_failure_becomes_failing_result(self):
        def body():
            raise CheckFailure("law broken")

        result = run_check("x", "s", body)
        assert not result.passed and "law broken" in result.details

    def test_other_exceptions_propagate(self):
        """A crash is a checker bug, not a finding — it must not be
        swallowed into a tidy FAIL line."""
        def body():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            run_check("x", "s", body)


# ----------------------------------------------------------------------
# Invariant checks pass on the healthy simulator
# ----------------------------------------------------------------------
class TestInvariantChecks:
    def test_loop_iteration_coverage(self):
        out = check_loop_iteration_coverage(n_iters=64)
        assert out["n_cases"] == 8 and out["n_chunks"] > 0

    def test_schedule_chunk_coverage(self):
        assert check_schedule_chunk_coverage()["n_cases"] == 10

    def test_work_stealing_conservation(self):
        assert check_work_stealing_conservation()["n_graphs"] == 3


class TestStealAudit:
    """The ``work-stealing-replay`` relation: one tree and seed replay the
    identical decision stream; arbitrated ties are counted, not judged."""

    def test_replay_is_deterministic(self):
        out = check_work_stealing_replay()
        assert out["n_decisions"] > 0
        assert "replayed identically" in out["details"]

    def test_arbitrated_ties_counted(self):
        auditor = StealOrderAuditor()
        auditor.on_pop(1.0, 0, 10)
        auditor.on_steal(1.0, 1, 0, 11)  # two workers, same time
        auditor.on_pop(2.0, 2, 12)  # lone decision: not a tie
        assert auditor.arbitrated_ties() == 1

    def test_ties_reported_not_judged(self):
        result = run_check("work-stealing-replay", "invariants",
                           check_work_stealing_replay)
        assert result.passed
        ties = result.data["n_arbitrated_ties"]
        assert f"{ties} same-timestamp contention(s)" in result.details

    def test_leaky_auditor_is_caught(self, monkeypatch):
        """Decision state that leaks from one run into the next makes the
        replay diverge, and the relation fails."""
        leaked: list = []

        class LeakyAuditor(StealOrderAuditor):
            def __init__(self):
                # Starts from the decisions an earlier run left behind.
                super().__init__(events=list(leaked))

            def on_pop(self, now, worker, task_id):
                super().on_pop(now, worker, task_id)
                leaked.append(self.events[-1])

        monkeypatch.setattr(invariants_mod, "StealOrderAuditor",
                            LeakyAuditor)
        with pytest.raises(CheckFailure, match="replay diverged"):
            check_work_stealing_replay()


# ----------------------------------------------------------------------
# Fault injection: each checker catches the bug class it guards against
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_off_by_one_chunk_bound_is_caught(self, monkeypatch):
        """The acceptance fault: an off-by-one upper chunk bound (every
        chunk loses its last iteration) trips the coverage invariant."""
        def off_by_one(kind, n_iters, nthreads, chunk=None):
            for lo, hi in iterate_chunks(kind, n_iters, nthreads, chunk):
                yield lo, max(lo, hi - 1)

        monkeypatch.setattr(invariants_mod, "iterate_chunks", off_by_one)
        with pytest.raises(CheckFailure, match="never executed"):
            check_schedule_chunk_coverage()

    def test_loopsim_dropped_iterations_are_caught(self, monkeypatch):
        """A chunking bug inside the DES loop simulator (last iteration of
        every chunk silently skipped) trips the loop coverage check."""
        real = invariants_mod.simulate_loop

        def lossy(costs, workers, on_chunk=None, **kwargs):
            def truncated(w, lo, hi, start, duration):
                on_chunk(w, lo, max(lo, hi - 1), start, duration)

            return real(costs, workers,
                        on_chunk=truncated if on_chunk else None, **kwargs)

        monkeypatch.setattr(invariants_mod, "simulate_loop", lossy)
        with pytest.raises(CheckFailure, match="never executed"):
            check_loop_iteration_coverage(n_iters=64)

    def test_lost_task_is_caught(self, monkeypatch):
        """A work-stealing simulator that loses one task trips the task
        conservation check."""
        class LossySim(WorkStealingSimulator):
            def run(self, tree, worker_speeds=None, on_task=None):
                dropped = [False]

                def skipping(w, tid, start, end):
                    if not dropped[0]:
                        dropped[0] = True
                        return
                    on_task(w, tid, start, end)

                return super().run(
                    tree, worker_speeds,
                    on_task=skipping if on_task else None,
                )

        monkeypatch.setattr(invariants_mod, "WorkStealingSimulator",
                            LossySim)
        with pytest.raises(CheckFailure, match="distinct tasks"):
            check_work_stealing_conservation()


# ----------------------------------------------------------------------
# Metamorphic relations hold on the current model
# ----------------------------------------------------------------------
class TestMetamorphicRelations:
    def test_cost_scaling(self):
        out = relation_cost_scaling()
        assert out["n_exact"] > 0 and out["n_bracket"] > 0

    def test_serial_phase_threads(self):
        relation_serial_phase_threads()

    def test_blocktime_bracketing(self):
        relation_blocktime_bracketing()

    def test_default_speedup_unity(self):
        relation_default_speedup_unity()


# ----------------------------------------------------------------------
# Differential parity and golden traces
# ----------------------------------------------------------------------
class TestDifferential:
    def test_quick_parity(self):
        out = differential_parity()
        assert out["n_records"] > 0
        assert out["paths"] == ["cold-cache", "parallel", "warm-cache"]

    def test_repo_fixtures_match(self):
        """The blessed fixtures shipped in tests/golden/ match the model."""
        assert golden_trace_check()["n_cases"] == 4

    def test_bless_then_check_roundtrip(self, tmp_path):
        written = bless_golden_traces(tmp_path)
        assert len(written) == 4
        assert golden_trace_check(golden_dir=tmp_path)["n_events"] > 0

    def test_missing_dir_fails(self, tmp_path):
        with pytest.raises(CheckFailure, match="does not exist"):
            golden_trace_check(golden_dir=tmp_path / "nope")

    def test_missing_fixture_fails(self, tmp_path):
        bless_golden_traces(tmp_path)
        (tmp_path / "milan_cg_default.json").unlink()
        with pytest.raises(CheckFailure, match="missing"):
            golden_trace_check(golden_dir=tmp_path)

    def test_numeric_drift_fails(self, tmp_path):
        bless_golden_traces(tmp_path)
        path = tmp_path / "milan_cg_default.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["events"][0]["duration_s"] *= 1.0 + 1e-6
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckFailure, match="drifted"):
            golden_trace_check(golden_dir=tmp_path)

    def test_torn_fixture_fails(self, tmp_path):
        bless_golden_traces(tmp_path)
        (tmp_path / "milan_cg_default.json").write_text("{ torn",
                                                        encoding="utf-8")
        with pytest.raises(CheckFailure, match="unreadable"):
            golden_trace_check(golden_dir=tmp_path)


class TestBlockParity:
    """Every parity leg compares merged block bytes; rows are decoded only
    to explain a mismatch."""

    @pytest.fixture(scope="class")
    def block(self):
        from repro.core.sweep import SweepPlan, run_sweep

        plan = SweepPlan(arch="milan", workload_names=("cg", "ep"),
                         scale="small", repetitions=2, inputs_limit=1)
        return run_sweep(plan).block

    def test_equal_blocks_pass(self, block):
        copy = RecordBlock.from_bytes(block.to_bytes())
        _require_same_block("x", block, copy, "ref", "got")

    def test_first_differing_record_is_named(self, block):
        records = sweep_block_to_records(block)
        r = records[5]
        records[5] = dataclasses.replace(
            r, runtimes=(r.runtimes[0] * 2, *r.runtimes[1:]))
        with pytest.raises(CheckFailure, match=(
                r"x: 1 record\(s\) differ, first at index 5 "
                r"\(ref \d+ vs got \d+\)")):
            _require_same_block("x", block, sweep_records_to_block(records),
                                "ref", "got")

    def test_missing_records_are_counted(self, block):
        n = len(block)
        shorter = sweep_records_to_block(sweep_block_to_records(block)[:-1])
        with pytest.raises(CheckFailure, match=(
                rf"1 record\(s\) differ, first at index {n - 1} "
                rf"\(ref {n} vs got {n - 1}\)")):
            _require_same_block("x", block, shorter, "ref", "got")

    def test_empty_candidate_is_counted(self, block):
        with pytest.raises(CheckFailure, match=(
                rf"{len(block)} record\(s\) differ, first at index 0")):
            _require_same_block("x", block, RecordBlock(block.schema),
                                "ref", "got")

    def test_interning_drift_is_flagged(self, block):
        # Same rows, string table in reverse order: only bytes can tell.
        drifted = RecordBlock(block.schema)
        for value in reversed(block.strings.to_list()):
            drifted.strings.add(value)
        drifted.extend(block)
        assert sweep_block_to_records(drifted) == \
            sweep_block_to_records(block)
        with pytest.raises(CheckFailure, match=(
                r"records equal, block bytes differ "
                r"\(interning/layout drift\)")):
            _require_same_block("x", block, drifted, "ref", "got")


class TestPruningParity:
    def test_quick_pruning_parity(self):
        out = pruning_parity()
        assert out["n_records"] > 0
        assert out["n_pruned"] > 0  # the check must not be vacuous
        assert out["n_simulated"] + out["n_pruned"] == out["n_records"]

    def test_registered_in_differential_suite(self):
        assert "equivalence-pruning-parity" in dict(SUITES["differential"])

    def test_coarse_signature_is_caught(self, monkeypatch):
        """The acceptance fault: if an execution-relevant ICV (here the
        loop schedule) leaks out of the signature, pruning merges configs
        that behave differently — parity must fail."""
        from repro.runtime.icv import ResolvedICVs

        real = ResolvedICVs.execution_signature

        def coarse(self):
            full = real(self)
            return full[:3] + full[5:]  # drop schedule + chunk

        monkeypatch.setattr(ResolvedICVs, "execution_signature", coarse)
        with pytest.raises(CheckFailure, match="diverged"):
            pruning_parity()

    def test_vacuous_grid_is_caught(self, monkeypatch):
        """A signature so fine it never merges anything (raw config key
        mixed in) makes the check meaningless — it must say so rather
        than 'pass'."""
        from repro.runtime.icv import ResolvedICVs

        real = ResolvedICVs.execution_signature
        counter = iter(range(10**9))

        def unique(self):
            return real(self) + (next(counter),)

        monkeypatch.setattr(ResolvedICVs, "execution_signature", unique)
        with pytest.raises(CheckFailure, match="vacuous"):
            pruning_parity()


# ----------------------------------------------------------------------
# Suite runner and reporting
# ----------------------------------------------------------------------
class TestRunner:
    def test_unknown_suite_raises(self):
        with pytest.raises(CheckFailure, match="unknown check suite"):
            run_suite("bogus")

    def test_invariants_suite_all_pass(self):
        results = run_suite("invariants")
        assert len(results) == len(SUITES["invariants"])
        assert all(r.passed for r in results)
        assert [r.suite for r in results] == ["invariants"] * len(results)

    def test_run_all_selected_suites_in_order(self):
        results = run_all(suites=("invariants", "metamorphic"))
        suites_seen = [r.suite for r in results]
        n_inv = len(SUITES["invariants"])
        assert suites_seen[:n_inv] == ["invariants"] * n_inv
        assert set(suites_seen[n_inv:]) == {"metamorphic"}
        assert all(r.passed for r in results)

    def test_format_results_renders_verdict(self):
        results = [
            CheckResult("a", True, suite="s1", duration_s=0.001),
            CheckResult("b", False, details="boom", suite="s2"),
        ]
        text = format_results(results)
        assert "[s1]" in text and "[s2]" in text
        assert "PASS" in text and "FAIL" in text and "boom" in text
        assert "1/2 checks FAILED" in text

    def test_write_report(self, tmp_path):
        results = run_suite("invariants")
        out = tmp_path / "sub" / "report.json"
        write_report(results, out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["n_checks"] == len(results)
        assert payload["n_failed"] == 0
        assert {c["name"] for c in payload["checks"]} == {
            name for name, _ in SUITES["invariants"]
        }


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCheckCLI:
    def test_check_suite_exit_zero(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(["check", "--suite", "invariants", "--quick",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert json.loads(report.read_text())["n_failed"] == 0

    def test_bless_writes_fixtures(self, capsys, tmp_path):
        code = main(["check", "--bless", "--golden-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert len(list(tmp_path.glob("*.json"))) == 4
        assert "blessed" in out


# ----------------------------------------------------------------------
# Columnar record pipeline parity
# ----------------------------------------------------------------------
class TestColumnarPipelineParity:
    def test_registered_in_differential_suite(self):
        assert "columnar-pipeline-parity" in [
            name for name, _ in SUITES["differential"]
        ]

    def test_quick_columnar_parity(self):
        out = columnar_pipeline_parity()
        assert "bit-identical" in out["details"]
        assert out["n_records"] > 0 and out["n_groups"] > 0
        assert out["block_nbytes"] > 0

    @pytest.mark.parametrize("backend", ["pool", "nodes"])
    def test_columnar_parity_on_ipc_backends(self, backend):
        # The same guarantees when the blocks arrive through the pool
        # spool or across the nodes backend's socket frames.
        out = columnar_pipeline_parity(backend=backend)
        assert "bit-identical" in out["details"]
        assert out["n_records"] > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(CheckFailure, match="unknown backend"):
            columnar_pipeline_parity(backend="mainframe")

    def test_lossy_unpack_is_caught(self, monkeypatch):
        """A decoder that drops a record must fail the round-trip leg."""
        import repro.core.sweep as sweep_mod

        real = sweep_mod.sweep_block_to_records

        def lossy(block):
            return real(block)[:-1]

        monkeypatch.setattr(sweep_mod, "sweep_block_to_records", lossy)
        with pytest.raises(CheckFailure, match="round-trip altered"):
            columnar_pipeline_parity()

    def test_row_oracle_without_align_encoding_is_caught(self, monkeypatch):
        """A row oracle that keeps ``align_alloc`` None instead of
        encoding it as 0 must fail the dataset-table leg: the leg really
        compares cells, and the quick plan has unset-align rows."""
        import repro.check.differential as differential_mod

        real = differential_mod._dataset_rows

        def raw_align(records):
            rows = real(records)
            for row, record in zip(rows, records):
                row["align_alloc"] = record.config.align_alloc
            return rows

        monkeypatch.setattr(differential_mod, "_dataset_rows", raw_align)
        with pytest.raises(CheckFailure, match="row oracle"):
            columnar_pipeline_parity()

    def test_wrong_group_order_is_caught(self, monkeypatch):
        """A factorizer that numbers groups in sorted instead of
        first-appearance order must fail the group_by parity leg."""
        import repro.frame.table as table_mod

        real = table_mod._composite_codes

        def sorted_order(cols):
            codes = real(cols)
            return None if codes is None else codes.max() - codes

        monkeypatch.setattr(table_mod, "_composite_codes", sorted_order)
        with pytest.raises(CheckFailure, match="group_by diverged"):
            columnar_pipeline_parity()


# ----------------------------------------------------------------------
# Resilience degrade+resume parity
# ----------------------------------------------------------------------
class TestResilienceDegradeParity:
    def test_registered_in_differential_suite(self):
        assert "resilience-degrade-parity" in [
            name for name, _ in SUITES["differential"]
        ]

    @pytest.mark.parametrize("backend", ["serial", "pool", "nodes"])
    def test_quick_degrade_parity_per_backend(self, backend):
        out = resilience_degrade_parity(backend=backend)
        assert "bit-identical" in out["details"]
        assert out["backend"] == backend
        assert out["n_quarantined"] >= 1
        assert out["n_recovered"] >= 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(CheckFailure, match="unknown backend"):
            resilience_degrade_parity(backend="mainframe")

    def test_silent_corruption_swallow_is_caught(self, monkeypatch):
        """Regress the cache to its old behavior — corruption read as a
        plain miss, never recorded — and the check must fail: resume
        parity alone is not enough, the fault must be *observable*."""
        from repro.core.cache import SweepCache

        real_get = SweepCache.get

        def swallowing(self, key):
            records = real_get(self, key)
            self.corrupt_keys.clear()
            return records

        monkeypatch.setattr(SweepCache, "get", swallowing)
        with pytest.raises(CheckFailure, match="corrupt"):
            resilience_degrade_parity()


# ----------------------------------------------------------------------
# Sharded multi-backend execution parity
# ----------------------------------------------------------------------
class TestShardedExecutionParity:
    def test_registered_in_differential_suite(self):
        assert "sharded-execution-parity" in [
            name for name, _ in SUITES["differential"]
        ]

    def test_quick_sharded_parity(self):
        out = sharded_execution_parity()
        assert out["n_records"] > 0
        # Serial runs once; both fleets appear at 1, 2 and 4 processes.
        assert len(out["combinations"]) == 7
        assert "serial" in out["combinations"]
        for backend in ("pool", "nodes"):
            for n_processes in (1, 2, 4):
                assert f"{backend}x{n_processes}" in out["combinations"]
        # The chaos leg observed both node fault kinds and quarantined
        # the poison batch, whose chaos crash is booked as a crash.
        assert out["chaos_fault_kinds"] == ["crash", "node-lost",
                                            "shard-partition"]
        assert out["n_quarantined"] >= 1

    def test_order_sensitive_backend_is_caught(self, monkeypatch):
        """A backend that yields outcomes out of submission order must
        fail the parity sweep.  (Regressing the serial reference would
        be invisible — both sides would shuffle alike — so the fault
        goes into the nodes backend.)"""
        from repro.resilience.backends import NodesBackend

        real = NodesBackend.stream

        def completion_order(self, tasks):
            outcomes = list(real(self, tasks))
            mid = len(outcomes) // 2
            return iter(outcomes[mid:] + outcomes[:mid])

        monkeypatch.setattr(NodesBackend, "stream", completion_order)
        with pytest.raises(CheckFailure,
                           match="nodes.*diverged|diverged from"):
            sharded_execution_parity()
