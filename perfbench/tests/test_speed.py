"""CPU-speed probe: the slowdown factor the calibrated workloads scale by,
and the phase arithmetic that applies it."""

import pytest

import speed
from workloads import Phase


def test_slowdown_is_the_median_probe_over_the_reference():
    ref = speed.REFERENCE_S
    assert speed.slowdown([ref, 2 * ref, 1.5 * ref]) == pytest.approx(1.5)
    assert speed.slowdown([ref] * 4) == pytest.approx(1.0)


def test_one_outlier_probe_does_not_move_the_factor():
    ref = speed.REFERENCE_S
    assert speed.slowdown([ref, ref, ref, 50 * ref]) == pytest.approx(1.0)


def test_no_probes_means_no_scaling():
    assert speed.slowdown([]) == 1.0


def test_probe_times_a_positive_interval():
    assert speed.probe() > 0.0


def test_bracket_is_the_mean_of_the_probes_around_a_stretch(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 0.03)
    assert speed.bracket(0.01) == pytest.approx(0.02)


def _phase():
    ref = speed.REFERENCE_S
    # Two passes of two operations; the second pass ran at half speed.
    return Phase(
        ops=[("a", 1.0, ref), ("b", 2.0, ref),
             ("a", 2.0, 2 * ref), ("b", 4.0, 2 * ref)],
        stretches=[("a", 1.0, 10, 1, ref), ("b", 2.0, 10, 1, ref),
                   ("a", 2.0, 10, 1, 2 * ref), ("b", 4.0, 10, 1, 2 * ref)],
        passes=2)


def test_scaling_divides_each_time_by_its_own_probe():
    scaled = _phase().scaled()
    assert scaled.op_s == pytest.approx([1.0, 2.0, 1.0, 2.0])
    assert scaled.timed_s == pytest.approx(6.0)
    assert scaled.records == 40 and scaled.passes == 2


def test_phase_slowdown_is_the_median_of_its_probes():
    assert _phase().slowdown == pytest.approx(1.5)
