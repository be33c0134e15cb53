"""Tests for the observability layer (repro.obs): tracer, metrics,
environment configuration, and the engine wiring."""

import pytest

from repro.core.baseline import BruteForceEvaluator
from repro.core.evaluator import Foc1Evaluator
from repro.logic.parser import parse_formula
from repro.obs import (
    MetricsRegistry,
    Tracer,
    active_metrics,
    active_tracer,
    collect_metrics,
    configure_from_env,
    hit_rate,
    set_metrics,
    set_tracer,
    span,
    trace_spans,
    traced,
)
from repro.robust.guard import RobustEvaluator
from repro.sparse.covers import sparse_cover
from repro.structures.builders import grid_graph, path_graph


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a.b", 2)
        registry.inc("a.b")
        registry.observe("h", 3)
        registry.observe("h", 5)
        snap = registry.snapshot()
        assert snap["counters"]["a.b"] == 3
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == 4.0
        assert snap["histograms"]["h"]["min"] == 3
        assert snap["histograms"]["h"]["max"] == 5

    def test_hit_rate_edge_cases(self):
        assert hit_rate(0, 0) is None
        assert hit_rate(1, 0) == 1.0
        assert hit_rate(0, 4) == 0.0

    def test_zero_traffic_snapshot_survives_every_formatter(self):
        """ISSUE 9: a fresh registry's ratios must reach every consumer as
        None (rendered "n/a"), never as 0.0 or a TypeError."""
        import json

        from repro.plan.cache import PlanCache

        registry = MetricsRegistry()
        # The snapshot is JSON-safe without any rate key to mis-format.
        snapshot = registry.snapshot()
        json.dumps(snapshot)
        assert "memo_hit_rate" not in snapshot["counters"]
        # A cold plan cache reports no rate rather than "all misses".
        assert PlanCache().stats()["hit_rate"] is None

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.observe("h", 7)
        a.merge(b)
        assert a.counter("c") == 3
        assert a.histograms["h"].max == 7

    def test_collect_metrics_restores_previous(self):
        assert active_metrics() is None
        with collect_metrics() as outer:
            assert active_metrics() is outer
            with collect_metrics() as inner:
                assert active_metrics() is inner
            assert active_metrics() is outer
        assert active_metrics() is None


class TestTracer:
    def test_spans_nest_and_aggregate(self):
        with trace_spans() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        summary = tracer.summary()
        assert summary["outer"]["calls"] == 1
        assert summary["inner"]["calls"] == 2
        inner_spans = [s for s in tracer.spans if s.name == "inner"]
        assert all(s.parent == "outer" and s.depth == 1 for s in inner_spans)
        assert tracer.report()  # non-empty, slowest-first lines

    def test_span_log_is_bounded(self):
        with trace_spans(Tracer(max_spans=3)) as tracer:
            for _ in range(5):
                with span("x"):
                    pass
        assert len(tracer.spans) == 3
        assert tracer.dropped == 2
        assert tracer.summary()["x"]["calls"] == 5

    def test_traced_decorator_is_noop_when_off(self):
        calls = []

        @traced("t.f")
        def f(value):
            calls.append(value)
            return value * 2

        assert active_tracer() is None
        assert f(2) == 4
        with trace_spans() as tracer:
            assert f(3) == 6
        assert tracer.summary()["t.f"]["calls"] == 1
        assert calls == [2, 3]


class TestConfigureFromEnv:
    @pytest.mark.parametrize(
        "value, want_trace, want_metrics",
        [
            ("1", True, True),
            ("true", True, True),
            ("both", True, True),
            ("trace", True, False),
            ("spans", True, False),
            ("metrics", False, True),
            ("counters", False, True),
            ("0", False, False),
            ("", False, False),
            ("nonsense", False, False),
        ],
    )
    def test_values(self, value, want_trace, want_metrics):
        tracer, registry = configure_from_env({"REPRO_TRACE": value})
        try:
            assert (tracer is not None) == want_trace
            assert (registry is not None) == want_metrics
        finally:
            set_tracer(None)
            set_metrics(None)

    def test_does_not_clobber_installed_instruments(self):
        mine = MetricsRegistry()
        previous = set_metrics(mine)
        try:
            _, registry = configure_from_env({"REPRO_TRACE": "1"})
            assert registry is None  # already installed: left alone
            assert active_metrics() is mine
        finally:
            set_metrics(previous)
            set_tracer(None)


class TestEngineWiring:
    def test_foc1_engine_records_memos_and_spans(self):
        structure = path_graph(8)
        phi = parse_formula("exists y. E(x, y) & E(y, z)")
        with trace_spans() as tracer, collect_metrics() as metrics:
            Foc1Evaluator().count(structure, phi, ["x", "z"])
        assert tracer.summary()["foc1.count"]["calls"] == 1
        counters = metrics.counters
        assert counters.get("evaluator.holds.memo.miss", 0) > 0

    def test_cover_construction_records_cluster_sizes(self):
        with collect_metrics() as metrics:
            sparse_cover(grid_graph(4, 4), 1)
        assert metrics.counter("cover.built") == 1
        assert metrics.histograms["cover.cluster_size"].count > 0

    def test_baseline_is_traced(self):
        structure = path_graph(4)
        phi = parse_formula("E(x, y)")
        with trace_spans() as tracer:
            BruteForceEvaluator().count(structure, phi, ["x", "y"])
        assert tracer.summary()["baseline.count"]["calls"] == 1

    def test_robust_cascade_attributes_metrics_to_stages(self):
        structure = path_graph(6)
        phi = parse_formula("forall x. exists y. E(x, y)")
        robust = RobustEvaluator()
        with collect_metrics() as metrics:
            assert robust.model_check(structure, phi) is True
        report = robust.last_report
        assert metrics.counter("robust.stage.foc1.ok") == 1
        assert metrics.counter("robust.stage.baseline.skipped") == 1
        foc1_stage = report.stage("foc1")
        assert foc1_stage.metrics  # counter deltas recorded
        assert all(v > 0 for v in foc1_stage.metrics.values())

    def test_disabled_instruments_change_nothing(self):
        structure = path_graph(6)
        phi = parse_formula("E(x, y) & E(y, z)")
        plain = Foc1Evaluator().count(structure, phi, ["x", "y", "z"])
        with trace_spans(), collect_metrics():
            instrumented = Foc1Evaluator().count(structure, phi, ["x", "y", "z"])
        assert plain == instrumented


class TestMetricsThreadSafety:
    def test_concurrent_increments_lose_no_updates(self):
        """Regression: inc() was a bare ``dict[key] += delta`` — a
        read-modify-write that drops updates under contention."""
        import threading

        registry = MetricsRegistry()
        threads_n, per_thread = 8, 2_000
        barrier = threading.Barrier(threads_n)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                registry.inc("contended")
                registry.observe("lat", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert registry.counter("contended") == threads_n * per_thread
        assert registry.histograms["lat"].count == threads_n * per_thread

    def test_disabled_metrics_still_noop(self):
        """The lock lives inside the registry: with no registry active the
        module-level tick/observe helpers stay a cheap None check."""
        previous = set_metrics(None)
        try:
            assert active_metrics() is None
            # module-level helpers must not raise with nothing active
            from repro.obs.metrics import tick

            tick("anything")
        finally:
            set_metrics(previous)

    def test_thread_local_override_shadows_global(self):
        from repro.obs.metrics import set_thread_metrics, thread_metrics

        shared = MetricsRegistry()
        previous = set_metrics(shared)
        try:
            local = MetricsRegistry()
            token = set_thread_metrics(local)
            try:
                assert active_metrics() is local
                active_metrics().inc("k")
            finally:
                set_thread_metrics(token)
            assert active_metrics() is shared
            assert local.counter("k") == 1
            assert shared.counter("k") == 0
            with thread_metrics(MetricsRegistry()) as scoped:
                assert active_metrics() is scoped
            assert active_metrics() is shared
        finally:
            set_metrics(previous)

    def test_merge_is_safe_against_concurrent_writers(self):
        import threading

        parent = MetricsRegistry()
        child = MetricsRegistry()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                child.inc("busy")

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(50):
                parent.merge(child)
        finally:
            stop.set()
            t.join()
        # No exception and a sane (monotone) folded value.
        assert parent.counter("busy") >= 0
