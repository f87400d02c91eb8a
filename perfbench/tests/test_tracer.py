"""Self time and spans of the outside-in tracer, on a synthetic call tree.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def synthetic_tree():
    """outer (span) -> [middle (span) -> leaf x2 (counter)], leaf (counter).

    Work: outer 1s itself, middle 2s itself, each leaf 3s.
    """
    clock = FakeClock()
    tracer = Tracer(clock=clock, unit=7)

    def leaf():
        clock.advance(3.0)

    def middle():
        clock.advance(2.0)
        leaf_t()
        leaf_t()

    def outer():
        clock.advance(1.0)
        middle_t()
        leaf_t()

    leaf_t = tracer.wrap("layer:leaf", leaf, span=False)
    middle_t = tracer.wrap("layer:middle", middle)
    outer_t = tracer.wrap("other:outer", outer)
    outer_t()
    return tracer


def test_self_time_is_duration_minus_children():
    stats = synthetic_tree().report()
    assert stats["other:outer"]["self_s"] == 1.0
    assert stats["layer:middle"]["self_s"] == 2.0
    assert stats["layer:leaf"]["self_s"] == 9.0
    assert stats["other:outer"]["busy_s"] == 12.0
    assert stats["layer:middle"]["busy_s"] == 8.0
    assert stats["layer:leaf"]["calls"] == 3
    assert sum(s["self_s"] for s in stats.values()) == 12.0


def test_spans_link_to_the_nearest_span_and_skip_counters():
    spans = synthetic_tree().spans
    assert spans == [(0, None, "other:outer", 0.0, 12.0, 7),
                     (1, 0, "layer:middle", 1.0, 9.0, 7)]


def test_wrapping_cost_is_taken_out_of_the_callers():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.unseen_cost = 0.25

    def inner():
        clock.advance(1.0)

    def outer():
        inner_t()
        clock.advance(0.25)  # stands for the inner wrapper's own work
        inner_t()
        clock.advance(0.25)

    inner_t = tracer.wrap("a:inner", inner, span=False)
    outer_t = tracer.wrap("b:outer", outer)
    outer_t()
    stats = tracer.report()
    assert stats["b:outer"]["busy_s"] == 2.0
    assert stats["b:outer"]["self_s"] == 0.0


def test_recursion_counts_busy_time_once_and_repeats_by_arguments():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fact(backend, n):
        clock.advance(1.0)
        return 1 if n <= 1 else n * fact_t(backend, n - 1)

    fact_t = tracer.wrap("x:fact", fact, span=False, track_repeats=True)
    assert fact_t(None, 3) == 6
    assert fact_t(None, 2) == 2
    stats = tracer.report()["x:fact"]
    assert stats["calls"] == 5
    assert stats["busy_s"] == 5.0
    assert stats["self_s"] == 5.0
    assert stats["repeats"] == 2
