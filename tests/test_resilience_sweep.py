"""End-to-end fault injection into the sweep engine (``-m chaos``).

These tests drive :func:`repro.core.sweep.run_sweep` through seeded
:class:`~repro.resilience.chaos.ChaosPlan` scenarios and assert the
acceptance contract of the resilience layer: degrade-mode sweeps finish,
every injected fault is named in the failure report, and degrade+resume
reproduces the fault-free dataset bit-for-bit.
"""

import threading

import pytest

from repro.core.cache import SweepCache
from repro.core.sweep import SweepPlan, plan_batches, run_sweep
from repro.errors import PoisonBatchError, SweepCancelledError
from repro.resilience import BACKEND_NAMES, ChaosFault, ChaosPlan, RetryPolicy

pytestmark = pytest.mark.chaos

#: Retries resolve in milliseconds so a full chaos cycle stays fast.
FAST = RetryPolicy(max_retries=2, base_delay_s=0.01, seed=11)


@pytest.fixture(scope="module")
def plan():
    return SweepPlan(arch="milan", workload_names=("cg", "ep", "nqueens"),
                     scale="small", repetitions=2, inputs_limit=2)


@pytest.fixture(scope="module")
def clean_records(plan):
    return run_sweep(plan).records


class TestCleanRuns:
    def test_fault_free_sweep_reports_clean(self, plan, clean_records):
        result = run_sweep(plan, n_processes=2, fail_policy="degrade")
        assert result.records == clean_records
        assert result.n_quarantined_batches == 0
        assert result.failure_report is not None
        assert result.failure_report.clean


class TestAcceptanceScenario:
    def test_degrade_then_resume_matches_fault_free(self, tmp_path, plan,
                                                    clean_records):
        """The ISSUE acceptance scenario: crash + hang + corrupt payload +
        poison + on-disk cache corruption into a 2-process sweep."""
        n_batches = len(plan_batches(plan))
        chaos = ChaosPlan.generate(n_batches, seed=11, crashes=1, hangs=1,
                                   corrupt_results=1, cache_faults=1,
                                   poison=1)
        degraded = run_sweep(
            plan, n_processes=2, cache=SweepCache(tmp_path / "cache"),
            fail_policy="degrade", chaos=chaos, retry=FAST,
            batch_timeout_s=5.0,
        )
        report = degraded.failure_report

        # The sweep completed in degrade mode with the poison batch
        # quarantined, and the report names every injected fault.
        assert degraded.n_quarantined_batches == 1
        assert report.n_quarantined == 1
        assert report.injected == chaos.describe()
        recorded_kinds = {
            a.kind for b in report.batches for a in b.attempts
        }
        assert {"crash", "timeout", "corrupt-result"} <= recorded_kinds
        failed_indices = {b.index for b in report.batches}
        worker_fault_indices = {
            f.batch_index for f in chaos.faults
            if not f.kind.startswith("cache-")
        }
        assert failed_indices == worker_fault_indices

        # Resume over the same cache: the quarantined batch is
        # re-simulated, the cache corruption trips the checksum, and the
        # final records are bit-identical to the fault-free sweep.
        resume_cache = SweepCache(tmp_path / "cache")
        resumed = run_sweep(plan, cache=resume_cache,
                            fail_policy="degrade")
        assert len(resume_cache.corrupt_keys) == 1
        assert resume_cache.corrupt_path_for(
            resume_cache.corrupt_keys[0]
        ).exists()
        assert resumed.n_quarantined_batches == 0
        assert resumed.records == clean_records

    def test_failure_report_is_deterministic(self, plan):
        """Same ChaosPlan, same report — bit-identical content (no
        wall-clock, no worker ids)."""
        n_batches = len(plan_batches(plan))
        chaos = ChaosPlan.generate(n_batches, seed=11, crashes=1, hangs=1,
                                   corrupt_results=1, poison=1,
                                   cache_faults=0)
        reports = [
            run_sweep(plan, n_processes=2, fail_policy="degrade",
                      chaos=chaos, retry=FAST,
                      batch_timeout_s=5.0).failure_report.to_dict()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]


class TestSerialChaos:
    def test_serial_path_simulates_worker_faults(self, plan,
                                                 clean_records):
        """``n_processes=1`` records the same fault kinds without real
        process kills, so the two paths stay report-compatible."""
        n_batches = len(plan_batches(plan))
        chaos = ChaosPlan.generate(n_batches, seed=11, crashes=1, hangs=1,
                                   corrupt_results=1, cache_faults=0,
                                   poison=0)
        result = run_sweep(plan, fail_policy="degrade", chaos=chaos,
                           retry=FAST)
        report = result.failure_report
        assert result.records == clean_records
        assert result.n_quarantined_batches == 0
        assert report.n_recovered == 3
        recorded_kinds = {
            a.kind for b in report.batches for a in b.attempts
        }
        assert recorded_kinds == {"crash", "timeout", "corrupt-result"}

    def test_poison_raises_under_strict_policy(self, plan):
        chaos = ChaosPlan(seed=0, faults=(
            ChaosFault("crash", 0, attempts=None),
        ))
        with pytest.raises(PoisonBatchError):
            run_sweep(plan, fail_policy="raise", chaos=chaos, retry=FAST)

    def test_invalid_fail_policy_rejected(self, plan):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_sweep(plan, fail_policy="shrug")


class TestOneFaultCatalog:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_process_deaths_book_the_same_kind_everywhere(self, backend):
        """A crash is a crash and a lost node is a lost node, whether the
        process really dies (pool, nodes) or serial books it in-process."""
        plan = SweepPlan(arch="milan",
                         workload_names=("cg", "ep", "nqueens"),
                         scale="small", repetitions=2, inputs_limit=3)
        chaos = ChaosPlan(seed=0, faults=(
            ChaosFault("node-lost", 2),
            ChaosFault("shard-partition", 5),
            ChaosFault("crash", 8),
        ))
        result = run_sweep(plan, n_processes=2, fail_policy="degrade",
                           chaos=chaos, retry=FAST, backend=backend)
        kinds = {b.index: [a.kind for a in b.attempts]
                 for b in result.failure_report.batches}
        assert kinds == {2: ["node-lost"], 5: ["shard-partition"],
                         8: ["crash"]}
        assert result.n_quarantined_batches == 0
        assert result.n_shards == (1 if backend == "serial" else 2)


class TestReportedShards:
    def test_serial_sweep_reports_one_lane(self, plan):
        """Requested processes that nothing ran on are not reported."""
        result = run_sweep(plan, n_processes=4, backend="serial")
        assert result.backend == "serial"
        assert result.n_shards == 1

    @pytest.mark.parametrize("backend, n_processes", [
        ("nodes", 3),
        ("pool", 2),
    ])
    def test_fleet_reports_the_processes_it_opened(
        self, plan, backend, n_processes
    ):
        """``n_processes`` sizes either fleet; with at least as many
        misses, every process opens and ``n_shards`` reports them."""
        assert len(plan_batches(plan)) >= n_processes
        result = run_sweep(plan, n_processes=n_processes, backend=backend)
        assert result.backend == backend
        assert result.n_shards == n_processes
        if backend == "nodes":
            assert result.shard_report.n_shards == n_processes

    def test_reports_only_processes_that_ran(self, plan, tmp_path):
        """A fully cached sweep runs nothing, and the pool opens no
        more workers than there are misses."""
        cache = SweepCache(tmp_path / "cache")
        run_sweep(plan, cache=cache)
        warm = run_sweep(plan, n_processes=3, backend="nodes", cache=cache)
        assert (warm.n_computed_batches, warm.n_shards) == (0, 1)
        next(iter(cache.root.glob("*.blk"))).unlink()
        result = run_sweep(plan, n_processes=4, backend="pool", cache=cache)
        assert (result.n_computed_batches, result.n_shards) == (1, 1)


class TestErrorPathFlushesCache:
    def test_landed_batches_cached_before_reraise(self, tmp_path, plan):
        """A sweep aborted by a poison batch must flush every batch that
        already completed to the cache, so the retry resumes instead of
        restarting from zero."""
        chaos = ChaosPlan(seed=0, faults=(
            ChaosFault("crash", 0, attempts=None),
        ))
        cache = SweepCache(tmp_path / "cache")
        with pytest.raises(PoisonBatchError) as excinfo:
            run_sweep(plan, n_processes=2, cache=cache,
                      fail_policy="raise", chaos=chaos, retry=FAST,
                      batch_timeout_s=5.0)
        assert excinfo.value.report is not None
        assert excinfo.value.report.n_quarantined == 1
        n_landed = len(cache)
        assert n_landed > 0, "completed batches must land in the cache"

        # And the resume completes the sweep from those entries.
        resumed = run_sweep(plan, cache=SweepCache(tmp_path / "cache"))
        assert resumed.n_cached_batches == n_landed
        assert resumed.records == run_sweep(plan).records


class TestCancellation:
    """Cooperative cancellation — the serving daemon's deadline/drain hook."""

    def test_preset_handle_aborts_before_any_batch(self, tmp_path, plan):
        cancel = threading.Event()
        cancel.set()
        cache = SweepCache(tmp_path / "cache")
        with pytest.raises(SweepCancelledError, match="cancelled"):
            run_sweep(plan, cache=cache, cancel=cancel)
        assert len(cache) == 0

    def test_mid_sweep_cancel_flushes_landed_batches(self, tmp_path, plan,
                                                     clean_records):
        """Cancel between batches: everything already landed is flushed
        to the cache before the raise, so the resume picks up exactly
        where the cancelled sweep stopped — the drain/restart contract
        the daemon's journal replay depends on."""
        cancel = threading.Event()

        def stop_after_first(done, total, app, input_size, nthreads):
            cancel.set()

        cache = SweepCache(tmp_path / "cache")
        with pytest.raises(SweepCancelledError):
            run_sweep(plan, cache=cache, progress=stop_after_first,
                      cancel=cancel)
        n_landed = len(cache)
        assert n_landed > 0, "completed batches must land in the cache"
        assert n_landed < len(plan_batches(plan))

        resumed = run_sweep(plan, cache=cache)
        assert resumed.n_cached_batches == n_landed
        assert resumed.records == clean_records

    def test_cancelled_is_a_resilience_error_subtype(self):
        """The daemon relies on the (documented) inheritance: cancel must
        be catchable separately *before* the generic degrade handler."""
        from repro.errors import ResilienceError

        assert issubclass(SweepCancelledError, ResilienceError)

    def test_unset_handle_is_inert(self, plan, clean_records):
        cancel = threading.Event()
        result = run_sweep(plan, cancel=cancel)
        assert result.records == clean_records
