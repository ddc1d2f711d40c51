"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def spans(events):
    """Drive a tracer through ("enter", layer, t) / ("exit", t) events and
    return its per-layer milliseconds for the ``query`` kind."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.begin_op("query")
    for event in events:
        clock.now = event[-1]
        if event[0] == "enter":
            tracer.enter(event[1])
        else:
            tracer.exit()
    tracer.end_op()
    return {layer: kinds["query"] for layer, kinds in tracer.totals()["ms"].items()}


def test_self_time_is_duration_minus_children():
    # parent 0..10 s, children 1..3 and 5..9 of another layer
    ms = spans([
        ("enter", "eval.fixpoint", 0.0),
        ("enter", "modules.plan", 1.0), ("exit", 3.0),
        ("enter", "modules.plan", 5.0), ("exit", 9.0),
        ("exit", 10.0),
    ])
    assert ms == {"eval.fixpoint": 4000.0, "modules.plan": 6000.0}


def test_grandchildren_are_charged_once():
    # a 0..10, b 2..8 inside it, c 3..4 inside b
    ms = spans([
        ("enter", "a", 0.0),
        ("enter", "b", 2.0),
        ("enter", "c", 3.0), ("exit", 4.0),
        ("exit", 8.0),
        ("exit", 10.0),
    ])
    assert ms == {"a": 4000.0, "b": 5000.0, "c": 1000.0}
    assert sum(ms.values()) == 10000.0  # the parent's whole duration


def test_nested_spans_of_one_layer_are_not_double_counted():
    ms = spans([
        ("enter", "modules.plan", 0.0),
        ("enter", "modules.plan", 1.0), ("exit", 4.0),
        ("exit", 5.0),
    ])
    assert ms == {"modules.plan": 5000.0}


def test_generator_resumes_are_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def produce():
        clock.now += 2.0
        yield 1
        clock.now += 3.0
        yield 2
        clock.now += 1.0

    traced = tracer.span_wrapper("eval.fixpoint", produce)
    tracer.begin_op("query")
    items = []
    for item in traced():
        clock.now += 100.0  # the consumer's time is not the layer's
        items.append(item)
    tracer.end_op()
    assert items == [1, 2]
    assert tracer.totals()["ms"]["eval.fixpoint"]["query"] == 6000.0


def test_counter_differences_are_charged_to_the_operation():
    counters = {"eval.inferences": 10}
    tracer = tracing.Tracer()
    tracer.counters = lambda: dict(counters)
    tracer.begin_op("write")
    counters["eval.inferences"] = 17
    tracer.end_op()
    assert tracer.totals()["counts"]["eval.inferences"] == {"write": 7}


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(19)), 0.5) is None  # 9 beyond rank 10
    assert stats.percentile(list(range(20)), 0.5) == 9  # 10 beyond rank 10
    assert stats.percentile(list(range(99)), 0.9) is None
    assert stats.percentile(list(range(1, 101)), 0.9) == 90
    assert stats.percentile([], 0.5) is None


def test_scale_follows_the_slices_beside_each_time():
    pacer = speed.Pacer()
    # the machine runs at the reference speed, then at half of it
    pacer.times = [float(t) for t in range(10)]
    ref = speed.REFERENCE_MS
    pacer.slices = [ref] * 5 + [2 * ref] * 5
    assert pacer.at(1.5) == 1.0
    assert pacer.at(8.5) == 0.5
    # before the first slice and after the last, the nearest ones count
    assert pacer.at(-1.0) == 1.0
    assert pacer.at(20.0) == 0.5
    # one odd slice among its neighbours does not move the scale
    pacer.slices[2] = 9 * ref
    assert pacer.at(2.5) == 1.0


def test_balanced_blocks_hold_each_item_once():
    import random

    draws = workloads.balanced(random.Random(5), "abcd")
    for _ in range(3):
        assert sorted(next(draws) for _ in range(4)) == list("abcd")


def test_same_seed_same_operations():
    def first_ops(seed):
        graph = workloads.serve_graph(seed)
        ops = workloads.serve_ops(seed, graph)
        return [next(ops) for _ in range(200)]

    assert first_ops(3) == first_ops(3)
    assert first_ops(3) != first_ops(4)
