"""Tests for the discrete-event kernel and synchronization primitives."""

import pytest

from repro.desim.engine import Engine, Event, Process, Timeout
from repro.desim.resources import Barrier, Lock
from repro.errors import DeadlockError, SimulationError


class TestEngineBasics:
    def test_timeout_ordering(self):
        eng = Engine()
        log = []

        def worker(name, delay):
            yield Timeout(delay)
            log.append((eng.now, name))

        eng.process(worker("late", 2.0))
        eng.process(worker("early", 1.0))
        eng.run()
        assert log == [(1.0, "early"), (2.0, "late")]

    def test_tie_break_by_creation_order(self):
        eng = Engine()
        log = []

        def worker(name):
            yield Timeout(1.0)
            log.append(name)

        for n in "abc":
            eng.process(worker(n))
        eng.run()
        assert log == ["a", "b", "c"]

    def test_process_result(self):
        eng = Engine()

        def compute():
            yield Timeout(1.0)
            return 42

        proc = eng.process(compute())
        eng.run()
        assert proc.done
        assert proc.result == 42

    def test_join_process(self):
        eng = Engine()
        log = []

        def child():
            yield Timeout(3.0)
            return "payload"

        def parent():
            c = eng.process(child())
            value = yield c
            log.append((eng.now, value))

        eng.process(parent())
        eng.run()
        assert log == [(3.0, "payload")]

    def test_event_value_delivery(self):
        eng = Engine()
        gate = eng.event()
        got = []

        def waiter():
            value = yield gate
            got.append(value)

        def firer():
            yield Timeout(5.0)
            gate.succeed("hello")

        eng.process(waiter())
        eng.process(firer())
        eng.run()
        assert got == ["hello"]
        assert gate.triggered and gate.value == "hello"

    def test_wait_on_triggered_event_immediate(self):
        eng = Engine()
        gate = eng.event()
        gate.succeed(7)
        got = []

        def waiter():
            got.append((yield gate))

        eng.process(waiter())
        eng.run()
        assert got == [7]

    def test_double_succeed_rejected(self):
        eng = Engine()
        gate = eng.event()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_bad_yield_rejected(self):
        eng = Engine()

        def bad():
            yield 123

        eng.process(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_deadlock_detection(self):
        eng = Engine()
        gate = eng.event()  # never succeeds

        def stuck():
            yield gate

        eng.process(stuck())
        with pytest.raises(DeadlockError):
            eng.run()

    def test_run_until(self):
        eng = Engine()

        def worker():
            yield Timeout(10.0)

        eng.process(worker())
        assert eng.run(until=5.0) == 5.0
        assert eng.run() == 10.0

    def test_non_generator_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            Process(eng, lambda: None)  # type: ignore[arg-type]


class TestEngineRegressions:
    """Regressions for truncated runs, clock monotonicity and scheduling."""

    def test_run_until_before_now_rejected(self):
        # Regression: run(until=t) with t < now used to silently move the
        # clock backwards, violating monotonicity.
        eng = Engine()

        def worker():
            yield Timeout(10.0)

        eng.process(worker())
        assert eng.run(until=5.0) == 5.0
        with pytest.raises(SimulationError, match="backwards"):
            eng.run(until=2.0)
        assert eng.now == 5.0  # clock untouched by the rejected call

    def test_run_until_now_is_noop(self):
        eng = Engine()

        def worker():
            yield Timeout(10.0)

        eng.process(worker())
        eng.run(until=5.0)
        assert eng.run(until=5.0) == 5.0

    def test_negative_internal_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="negative delay"):
            eng._schedule(-0.5, lambda arg: None, None)

    def test_live_process_accounting_is_synchronous(self):
        """A finished process is deducted the instant it finishes, so a
        truncated run never leaves the count stale."""
        eng = Engine()

        def quick():
            yield Timeout(1.0)

        def slow():
            yield Timeout(10.0)

        eng.process(quick())
        eng.process(slow())
        assert eng.live_processes == 2
        # Truncate just past quick's finish: its accounting must already
        # be settled even though the run returned early.
        eng.run(until=1.0)
        assert eng.live_processes == 1
        # The later drain completes normally — no spurious DeadlockError.
        assert eng.run() == 10.0
        assert eng.live_processes == 0

    def test_truncated_run_then_drain_no_spurious_deadlock(self):
        """Stepping workflow: external events succeed between truncated
        runs; draining afterwards must not report a deadlock."""
        eng = Engine()
        gate = eng.event()
        log = []

        def waiter():
            value = yield gate
            log.append((eng.now, value))

        def ticker():
            yield Timeout(2.0)

        eng.process(waiter())
        eng.process(ticker())
        eng.run(until=1.0)
        gate.succeed("go")
        assert eng.run() == 2.0
        assert log == [(1.0, "go")]
        assert eng.live_processes == 0

    def test_run_until_exact_finish_time(self):
        eng = Engine()

        def worker():
            yield Timeout(5.0)

        proc = eng.process(worker())
        assert eng.run(until=5.0) == 5.0
        assert proc.done
        assert eng.live_processes == 0


class _RecordingObserver:
    def __init__(self):
        self.scheduled = []
        self.advanced = []
        self.started = []
        self.finished = []

    def on_schedule(self, now, delay):
        self.scheduled.append((now, delay))

    def on_advance(self, time):
        self.advanced.append(time)

    def on_process_start(self, proc):
        self.started.append(proc.name)

    def on_process_finish(self, proc):
        self.finished.append(proc.name)


class TestEngineObserver:
    def test_hooks_fire_in_order(self):
        obs = _RecordingObserver()
        eng = Engine(observer=obs)

        def worker():
            yield Timeout(2.0)

        eng.process(worker(), name="w")
        eng.run()
        assert obs.started == ["w"]
        assert obs.finished == ["w"]
        # Initial kick at delay 0, then the timeout.
        assert obs.scheduled == [(0.0, 0.0), (0.0, 2.0)]
        assert obs.advanced == [0.0, 2.0]

    def test_advance_times_monotone(self):
        obs = _RecordingObserver()
        eng = Engine(observer=obs)

        def worker(d):
            yield Timeout(d)
            yield Timeout(d)

        for d in (3.0, 1.0, 2.0):
            eng.process(worker(d))
        eng.run()
        assert obs.advanced == sorted(obs.advanced)
        assert len(obs.finished) == 3

    def test_attach_detach(self):
        eng = Engine()
        obs = _RecordingObserver()
        eng.attach_observer(obs)
        with pytest.raises(SimulationError):
            eng.attach_observer(_RecordingObserver())
        assert eng.detach_observer() is obs
        assert eng.detach_observer() is None

        def worker():
            yield Timeout(1.0)

        eng.process(worker())
        eng.run()
        assert obs.started == []  # detached before anything ran


class TestLock:
    def test_mutual_exclusion_and_fifo(self):
        eng = Engine()
        lock = Lock(eng)
        log = []

        def worker(name, hold):
            yield from lock.acquire()
            log.append(("in", name, eng.now))
            yield Timeout(hold)
            log.append(("out", name, eng.now))
            lock.release()

        eng.process(worker("a", 2.0))
        eng.process(worker("b", 1.0))
        eng.process(worker("c", 1.0))
        eng.run()
        # Critical sections never overlap, FIFO order preserved.
        assert [e[1] for e in log] == ["a", "a", "b", "b", "c", "c"]
        assert log[2][2] == 2.0 and log[4][2] == 3.0
        assert lock.acquisitions == 3
        assert lock.contentions == 2

    def test_release_unheld_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            Lock(eng).release()

    def test_uncontended_acquire_is_immediate(self):
        eng = Engine()
        lock = Lock(eng)
        times = []

        def worker():
            yield from lock.acquire()
            times.append(eng.now)
            lock.release()
            yield Timeout(0.0)

        eng.process(worker())
        eng.run()
        assert times == [0.0]


class TestBarrier:
    def test_all_released_at_last_arrival(self):
        eng = Engine()
        bar = Barrier(eng, parties=3)
        released = []

        def worker(delay):
            yield Timeout(delay)
            yield from bar.wait()
            released.append(eng.now)

        for d in (1.0, 2.0, 5.0):
            eng.process(worker(d))
        eng.run()
        assert released == [5.0, 5.0, 5.0]
        assert bar.generations == 1

    def test_cyclic_reuse(self):
        eng = Engine()
        bar = Barrier(eng, parties=2)
        log = []

        def worker(name):
            for phase in range(3):
                yield Timeout(1.0)
                yield from bar.wait()
                log.append((phase, name, eng.now))

        eng.process(worker("a"))
        eng.process(worker("b"))
        eng.run()
        assert bar.generations == 3
        assert [e[2] for e in log] == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]

    def test_single_party_never_blocks(self):
        eng = Engine()
        bar = Barrier(eng, parties=1)

        def worker():
            yield from bar.wait()
            return "done"

        proc = eng.process(worker())
        eng.run()
        assert proc.result == "done"

    def test_invalid_parties(self):
        with pytest.raises(SimulationError):
            Barrier(Engine(), parties=0)
