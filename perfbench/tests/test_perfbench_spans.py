"""Span arithmetic and site installation of the benchmark's tracer."""

import itertools
import sys
import types

import pytest

import layers
import spans
from spans import COUNT_SPAN, Site, Span, Tracer


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("c", 3.0, 6.0, 0),  # overlaps b: the union 1..6 counts once
        Span("d", 2.0, 3.0, 1),
        Span("e", 12.0, 15.0, None),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 3.0, 1.0, 3.0])
    assert spans.covered_time(tree) == pytest.approx(13.0)


def test_pass_metrics_on_a_hand_built_tree():
    tree = [
        Span("tracker.flow_source", 0.0, 4.0, None),
        Span("assignment.hungarian", 0.5, 1.0, 0, {"padded_n": 4}),
        Span("encoder.encode", 1.0, 3.0, 0, {"grid_bytes": 2 << 20, "cells": 10, "touched": 4}),
        Span(COUNT_SPAN, 3.0, 3.5, 0),
        Span("tracker.flow_source", 4.0, 4.5, None),  # a cache hit: no encode child
        Span("tracker.match", 5.0, 7.0, None, {"poses": 4, "accepted": 3}),
        Span("scoring.build_matrix", 5.0, 6.0, 5, {"pairs": 6, "forbidden": 3}),
        Span("assignment.hungarian", 6.0, 6.5, 5, {"padded_n": 5}),
    ]
    m = layers.pass_metrics(tree, pass_s=8.0)
    assert m["tracker.flow_source.calls"] == 2
    assert m["tracker.flow_source.self_s"] == pytest.approx((4.0 - 3.0) + 0.5)
    assert m["tracker.flow_source.hit_ratio"] == 0.5
    assert m["encoder.encode.self_s"] == pytest.approx(2.0)
    assert m["encoder.encode.grid_mb"] == 2.0
    assert m["encoder.encode.cells_touched_ratio"] == 0.4
    assert m["assignment.hungarian.calls"] == 2
    assert m["assignment.hungarian.pairing_calls"] == 1
    assert m["assignment.hungarian.pairing_self_s"] == pytest.approx(0.5)
    assert m["assignment.hungarian.padded_n_max"] == 5
    assert m["assignment.hungarian.ops_n3"] == 4**3 + 5**3
    assert m["tracker.match.self_s"] == pytest.approx(0.5)
    assert m["tracker.match.accepted_ratio"] == 0.75
    assert m["scoring.build_matrix.forbidden_ratio"] == 0.5
    assert m["metrics.evaluate.calls"] == 0
    assert m["unattributed_s"] == pytest.approx(8.0 - 4.5 - 2.0)
    assert set(m) | {"trace_overhead_s", "trace.missing_sites"} == {n for n, _, _ in layers.METRICS}


def test_missing_site_is_listed_and_its_time_is_unattributed(monkeypatch):
    ticks = itertools.count()

    def clock():
        return float(next(ticks))

    pipeline = types.ModuleType("fake_pipeline")
    pipeline.encode = lambda: clock()
    pipeline.evaluate_v2 = lambda: clock()  # renamed by a refactor
    monkeypatch.setitem(sys.modules, "fake_pipeline", pipeline)
    sites = [
        Site("encoder.encode", "fake_pipeline", "encode"),
        Site("metrics.evaluate", "fake_pipeline", "evaluate"),
        Site("fileio.parse", "no_such_module", "parse"),
    ]
    tracer = Tracer(clock)
    with tracer.installed(sites) as missing:
        t0 = clock()
        pipeline.encode()
        pipeline.evaluate_v2()
        pass_s = clock() - t0
    assert missing == ["fake_pipeline:evaluate", "no_such_module:parse"]
    assert pipeline.encode.__name__ == "<lambda>" and not hasattr(pipeline, "evaluate")
    m = layers.pass_metrics(tracer.spans, pass_s)
    assert m["encoder.encode.calls"] == 1
    assert m["metrics.evaluate.calls"] == 0
    # Ticks: t0=0, encode span 1..3 (work at 2), evaluate work at 4, end 5.
    assert m["unattributed_s"] == pytest.approx(5.0 - 2.0)


def test_installed_restores_methods_and_counts_outside_the_span(monkeypatch):
    class Source:
        def grid(self, n):
            return [0] * n

    module = types.ModuleType("fake_source")
    module.Source = Source
    original = Source.grid
    monkeypatch.setitem(sys.modules, "fake_source", module)
    tracer = Tracer()
    site = Site("tracker.flow_source", "fake_source", "Source.grid", lambda a, k, r: {"n": len(r)})
    with tracer.installed([site]):
        assert Source().grid(3) == [0, 0, 0]
    assert Source.grid is original
    assert [s.name for s in tracer.spans] == ["tracker.flow_source", COUNT_SPAN]
    assert tracer.spans[0].attrs == {"n": 3}
    assert tracer.spans[1].parent is None
