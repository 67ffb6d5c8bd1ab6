"""Self-time arithmetic of the span tracer, on synthetic nested spans.

Run with: python3 -m pytest perfbench/test_tracer.py
"""

import pytest

from tracer import Tracer


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_subtracts_direct_children_only():
    now, clock = _fake_clock()
    tracer = Tracer(clock)

    def advance(seconds):
        now[0] += seconds

    leaf = tracer.wrap("leaf", lambda: advance(2.0))

    def mid_body():
        advance(1.0)
        leaf()
        advance(3.0)

    mid = tracer.wrap("mid", mid_body)

    def outer_body():
        advance(5.0)
        mid()
        leaf()
        advance(1.0)

    outer = tracer.wrap("outer", outer_body)
    outer()

    # outer spans 5 + (1 + 2 + 3) + 2 + 1 = 14; its children cover 6 + 2
    assert tracer.self_s == {"leaf": 4.0, "mid": 4.0, "outer": 6.0}
    assert tracer.calls == {"leaf": 2, "mid": 1, "outer": 1}
    assert sum(tracer.self_s.values()) == 14.0


def test_span_closes_when_the_call_raises():
    now, clock = _fake_clock()
    tracer = Tracer(clock)

    def fail():
        now[0] += 2.0
        raise ValueError("boom")

    failing = tracer.wrap("failing", fail)

    def outer_body():
        now[0] += 1.0
        with pytest.raises(ValueError):
            failing()
        now[0] += 1.0

    tracer.wrap("outer", outer_body)()
    assert tracer.self_s == {"failing": 2.0, "outer": 2.0}
    assert tracer._child_time == []


def test_hook_sees_arguments_and_result():
    tracer = Tracer(lambda: 0.0)
    seen = []
    double = tracer.wrap("double", lambda x: 2 * x, hook=lambda a, k, r: seen.append((a, r)))
    assert double(21) == 42
    assert seen == [((21,), 42)]
