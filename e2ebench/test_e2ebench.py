"""Tests for the end-to-end benchmark's span arithmetic and failure counting.

Run with ``PYTHONPATH=src python -m pytest -q e2ebench``.
"""

from __future__ import annotations

import time

import pytest

import layers
import workloads
from spans import Span, Tracer, chrome_trace, covered_length, self_time_by_kind, self_times


def test_nested_children_are_subtracted_once():
    spans = [Span(0, None, "engine", 0.0, 10.0),
             Span(1, 0, "backend", 2.0, 5.0),
             Span(2, 1, "backend.encoding", 3.0, 4.0)]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_overlapping_children_count_their_union_clipped_to_the_parent():
    spans = [Span(0, None, "engine", 0.0, 10.0),
             Span(1, 0, "emulator", 1.0, 4.0),
             Span(2, 0, "emulator", 3.0, 6.0),    # overlaps the first child
             Span(3, 0, "zkvm", 8.0, 12.0)]       # sticks out of the parent
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_time_by_kind(spans)["emulator"] == pytest.approx(6.0)


def test_covered_length_merges_touching_and_skips_empty_intervals():
    assert covered_length([(0, 1), (1, 2), (5, 5), (4, 3)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_times_of_a_serial_tree_sum_to_its_root():
    spans = [Span(0, None, "a", 0.0, 9.0), Span(1, 0, "b", 1.0, 3.0),
             Span(2, 0, "c", 4.0, 8.0), Span(3, 2, "d", 5.0, 6.0)]
    assert sum(self_times(spans).values()) == pytest.approx(9.0)


def test_chrome_trace_has_one_named_track_per_kind():
    spans = [Span(0, None, "passes", 1.0, 2.0), Span(1, None, "backend", 2.0, 3.0),
             Span(2, None, "passes", 3.0, 3.5)]
    events = chrome_trace(spans, origin=1.0)["traceEvents"]
    names = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert sorted(names.values()) == ["backend", "passes"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [names[e["tid"]] for e in complete] == ["passes", "backend", "passes"]
    assert complete[0]["ts"] == 0.0 and complete[2]["dur"] == pytest.approx(5e5)


def _measure(engine, pairs):
    from repro.experiments.profiles import baseline_profile, profile_by_name

    profiles = {"baseline": baseline_profile(), "-O1": profile_by_name("-O1")}
    return engine.measure_pairs([(b, profiles[p]) for b, p in pairs])


def _engine():
    from repro.experiments.engine import ExperimentEngine

    return ExperimentEngine(workers=1, use_disk_cache=False)


def test_a_planted_wrong_output_raises_the_failed_share():
    engine = _engine()
    _measure(engine, [("fibonacci", "baseline"), ("loop-sum", "-O1")])
    expected = workloads.load_expected()

    def no_counts(measurements, result):
        return {}

    clean = workloads.measurement_outcome(engine, {}, None, expected, no_counts)
    assert (clean.attempted, clean.failed, clean.problems) == (2, 0, [])

    planted = dict(expected, fibonacci={"output": [1], "return_value": 1})
    outcome = workloads.measurement_outcome(engine, {}, None, planted, no_counts)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.problems[0].startswith("fibonacci/")


def test_a_workload_that_raises_is_a_failure_not_a_crash():
    engine = _engine()
    raw = workloads._guarded(lambda: _measure(engine, [("no-such-benchmark", "baseline")]))
    assert raw[0] is None
    outcome = workloads.measurement_outcome(engine, *raw, workloads.load_expected(),
                                            lambda m, r: {})
    assert outcome.failed >= 1 and outcome.problems


def test_layer_spans_add_up_to_the_traced_wall_and_counts_repeat():
    from repro.experiments import runner

    original = runner.compile_source
    counted = Tracer(timing=False)
    with layers.install(counted):
        assert runner.compile_source is not original
        _measure(_engine(), [("fibonacci", "-O1")])
    assert runner.compile_source is original

    tracer = Tracer(timing=True)
    with layers.install(tracer):
        start = time.perf_counter()
        (measurement,) = _measure(_engine(), [("fibonacci", "-O1")])
        wall = time.perf_counter() - start
    assert isinstance(measurement, runner.Measurement)
    metrics = layers.layer_metrics(tracer, wall)
    layer_total = sum(metrics[name] for name in layers.TIME_METRICS.values())
    assert layer_total + metrics["unattributed.s"] == pytest.approx(wall)
    assert metrics["unattributed.s"] >= 0
    for kind in ("frontend", "passes", "backend", "backend.encoding",
                 "emulator", "cpu", "zkvm"):
        assert metrics[layers.TIME_METRICS[kind]] > 0, kind
    assert metrics["emulator.instrs"] == measurement.instructions
    assert {n: counted.counts[n] for n in layers.COUNT_METRICS} == \
        {n: tracer.counts[n] for n in layers.COUNT_METRICS}
    assert not tracer.problems
