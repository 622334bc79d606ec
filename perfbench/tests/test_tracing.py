"""Tracing wrappers: self-time arithmetic and restoring the originals."""

import sys
import threading
import types

import pytest

from tracing import Tracer


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def make_module():
    mod = types.ModuleType("repro_toy")

    def inner():
        return "inner"

    def outer():
        return mod.inner() + "+outer"

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_subtracts_nested_spans():
    mod = make_module()
    # outer starts at 0, inner runs 1..4, outer ends at 10.
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 4.0, 10.0))
    tracer.wrap_attr(mod, "outer", "outer")
    tracer.wrap_attr(mod, "inner", "inner")
    assert mod.outer() == "inner+outer"
    assert tracer.get("outer").total_s == 10.0
    assert tracer.get("outer").busy_s == 7.0
    assert tracer.get("inner").busy_s == 3.0
    assert tracer.get("inner").calls == tracer.get("outer").calls == 1


def test_sibling_spans_both_subtract_and_grandchildren_do_not():
    # outer 0..20 holds a 2..5 and b 6..16; b holds inner 7..9.
    tracer = Tracer(clock=FakeClock(0.0, 2.0, 5.0, 6.0, 7.0, 9.0, 16.0,
                                    20.0))

    def inner():
        return None

    def a():
        return None

    def b():
        tracer.call("inner", inner, (), {})

    def outer():
        tracer.call("a", a, (), {})
        tracer.call("b", b, (), {})

    tracer.call("outer", outer, (), {})
    assert tracer.get("outer").busy_s == 20.0 - 3.0 - 10.0
    assert tracer.get("b").busy_s == 10.0 - 2.0
    assert tracer.get("inner").busy_s == 2.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("boom", boom, (), {})
    # The stack unwound: the next span is top-level again.
    tracer.call("after", lambda: None, (), {})
    assert tracer.get("boom").calls == 1
    assert tracer.get("after").busy_s == 1.0


def test_restore_puts_back_functions_methods_and_properties():
    mod = make_module()

    class Box:
        def method(self):
            return 1

        @property
        def prop(self):
            return 2

    originals = (mod.inner, Box.__dict__["method"], Box.__dict__["prop"])
    with Tracer() as tracer:
        tracer.wrap_attr(mod, "inner", "inner")
        for attr in ("method", "prop"):
            tracer.wrap_attr(Box, attr, attr)
        assert mod.inner is not originals[0]
        box = Box()
        assert (box.method(), box.prop) == (1, 2)
        assert [tracer.get(n).calls for n in ("method", "prop")] == [1, 1]
    assert (mod.inner, Box.__dict__["method"],
            Box.__dict__["prop"]) == originals
    box.method()
    assert tracer.get("method").calls == 1  # untraced after restore


def test_wrap_everywhere_reaches_every_binding_and_restores_them():
    def shared():
        return "x"

    a = types.ModuleType("toypkg.a")
    b = types.ModuleType("toypkg.b")
    a.shared = shared
    b.alias = shared
    sys.modules["toypkg.a"], sys.modules["toypkg.b"] = a, b
    try:
        tracer = Tracer()
        assert tracer.wrap_everywhere(shared, "shared", package="toypkg") \
            == 2
        a.shared()
        b.alias()
        assert tracer.get("shared").calls == 2
        tracer.restore()
        assert a.shared is shared and b.alias is shared
        with pytest.raises(LookupError):
            tracer.wrap_everywhere(lambda: None, "none", package="toypkg")
    finally:
        del sys.modules["toypkg.a"], sys.modules["toypkg.b"]


def test_iterate_times_each_next_and_counts_items():
    class Source:
        def stream(self, n):
            yield from range(n)

    with Tracer() as tracer:
        tracer.wrap_attr(Source, "stream", "stream", iterate=True)
        assert list(Source().stream(3)) == [0, 1, 2]
    stats = tracer.get("stream")
    assert stats.items == 3
    assert stats.calls == 4  # three items plus the exhausting call


def test_counts_and_intervals():
    tracer = Tracer(keep_intervals=True)
    mod = make_module()
    tracer.wrap_attr(mod, "outer", "outer", count=lambda _a, r: len(r))
    tracer.wrap_attr(mod, "inner", "inner")
    mod.outer()
    assert tracer.get("outer").items == len("inner+outer")
    # Only the top-level span is kept as an interval.
    assert [name for name, _, _ in tracer.intervals] == ["outer"]
    tracer.restore()


def test_nesting_is_per_thread():
    tracer = Tracer()
    gate = threading.Barrier(2)

    def slow():
        gate.wait()

    def run():
        tracer.call("t", slow, (), {})

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    assert not any(t.is_alive() for t in threads)
    stats = tracer.get("t")
    # Concurrent spans on two threads never count as each other's
    # children, so neither loses self time to the other.
    assert stats.calls == 2
    assert stats.busy_s == pytest.approx(stats.total_s)
