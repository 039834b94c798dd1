"""Unit tests for the streaming metrics registry (repro.obs.metrics).

The load-bearing properties: histogram quantiles stay inside the
documented error bound against the repo's exact ``percentile``,
snapshots are byte-identical for identical observation streams, and
the exposition text round-trips through the strict parser CI uses.
"""

import json
import math

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RateWindow,
    log_boundaries,
    metric_id,
    parse_prom_text,
    to_prom_text,
)
from repro.runtime.metrics import percentile


class TestLogBoundaries:
    def test_spans_requested_range(self):
        bounds = log_boundaries(1e-7, 1e2, per_decade=30)
        assert bounds[0] == pytest.approx(1e-7)
        assert bounds[-1] >= 1e2
        # 9 decades x 30 buckets per decade.
        assert len(bounds) == 271

    def test_constant_ratio(self):
        bounds = log_boundaries(1e-3, 1e0, per_decade=10)
        ratios = [hi / lo for lo, hi in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10 ** 0.1) for r in ratios)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            log_boundaries(0.0, 1.0)
        with pytest.raises(ValueError):
            log_boundaries(1.0, 1.0)
        with pytest.raises(ValueError):
            log_boundaries(1e-3, 1.0, per_decade=0)


class TestHistogramRecording:
    def test_counts_and_moments(self):
        hist = Histogram()
        hist.observe_many([0.0, 1e-9, 1e-3, 5.0, 1e3])
        assert hist.count == 5
        assert hist.zero_count == 1
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.min == 0.0
        assert hist.max == 1e3
        assert hist.sum == pytest.approx(1005.001, rel=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram().observe(float("nan"))

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=[1.0])
        with pytest.raises(ValueError):
            Histogram(boundaries=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram(boundaries=[0.0, 1.0])

    def test_zero_and_extremes_reconstruct_exactly(self):
        hist = Histogram()
        hist.observe_many([0.0, 0.0, 0.5])
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == pytest.approx(
            0.5, rel=hist.error_bound)
        assert Histogram().quantile(0.99) == 0.0


class TestHistogramQuantiles:
    def test_within_error_bound_of_exact(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-7.0, sigma=1.5,
                                size=5000).tolist()
        hist = Histogram()
        hist.observe_many(samples)
        for pct in (50.0, 90.0, 99.0):
            exact = percentile(samples, pct)
            estimate = hist.quantile(pct / 100.0)
            assert abs(estimate - exact) / exact <= hist.error_bound

    def test_error_bound_matches_boundary_ratio(self):
        hist = Histogram()
        assert hist.error_bound == pytest.approx(
            10 ** (1 / 60) - 1, rel=1e-9)
        assert hist.error_bound < 0.04

    def test_nearest_rank_matches_order_statistic_bucket(self):
        # All mass in one bucket: every quantile must clamp into the
        # exact observed [min, max] of that bucket.
        hist = Histogram()
        hist.observe_many([1e-3] * 100)
        assert hist.quantile(0.01) == pytest.approx(1e-3)
        assert hist.quantile(0.99) == pytest.approx(1e-3)

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestHistogramSnapshot:
    def test_sparse_buckets_and_percentiles(self):
        hist = Histogram()
        hist.observe_many([1e-4] * 9 + [1e-2])
        snap = hist.snapshot()
        assert snap["count"] == 10
        assert sum(c for _, c in snap["buckets"]) == 10
        assert snap["p50"] == pytest.approx(1e-4, rel=0.04)
        assert snap["p99"] == pytest.approx(1e-2, rel=0.04)

    def test_empty_snapshot_is_stable(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["buckets"] == []


class TestRateWindow:
    def test_sum_inside_window_only(self):
        win = RateWindow(1.0, buckets=10)
        win.add(0.05)
        win.add(0.95)
        win.add(1.25)
        assert win.sum(1.25) == 2.0  # the 0.05 slot has rolled off
        assert win.sum(1.25) / win.window == pytest.approx(2.0)

    def test_same_slot_folds(self):
        win = RateWindow(1.0, buckets=10)
        win.add(0.51, 2.0)
        win.add(0.52, 3.0)
        assert win.sum(0.6) == 5.0

    def test_out_of_order_within_ring_is_kept(self):
        win = RateWindow(1.0, buckets=10)
        win.add(0.9)
        win.add(0.3)
        assert win.late_drops == 0
        assert win.sum(0.9) == 2.0

    def test_too_late_is_dropped_deterministically(self):
        win = RateWindow(1.0, buckets=10)
        win.add(5.0)
        win.add(0.1)
        assert win.late_drops == 1
        assert win.sum(5.0) == 1.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RateWindow(0.0)
        with pytest.raises(ValueError):
            RateWindow(1.0, buckets=0)


class TestCounterGauge:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(7.0)
        gauge.set(5.0)
        assert gauge.value == 5.0


class TestMetricId:
    def test_sorts_labels(self):
        assert metric_id("x", {"b": "2", "a": "1"}) == \
            'x{a="1",b="2"}'
        assert metric_id("x") == "x"


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs")
        second = registry.counter("jobs")
        assert first is second
        assert len(registry) == 1

    def test_labels_make_distinct_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("jobs", labels={"tenant": "astro"})
        b = registry.counter("jobs", labels={"tenant": "fusion"})
        assert a is not b
        assert len(registry) == 2

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("jobs")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("jobs")

    def test_snapshot_json_byte_identical(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("a").inc(3)
            registry.gauge("b").set(1.5)
            registry.histogram("c").observe_many([1e-3, 2e-3])
            return registry

        assert json.dumps(build().snapshot(), sort_keys=True) == \
            json.dumps(build().snapshot(), sort_keys=True)


class TestPromExposition:
    @staticmethod
    def _registry():
        registry = MetricsRegistry()
        registry.counter("serve_jobs",
                         labels={"tenant": "astro"}).inc(4)
        registry.gauge("serve_pending").set(2.0)
        hist = registry.histogram("serve_latency_seconds")
        hist.observe_many([0.0, 1e-4, 2e-4, 5.0])
        return registry

    def test_round_trips_through_parser(self):
        text = to_prom_text(self._registry().snapshot())
        samples = parse_prom_text(text)
        assert samples['serve_jobs{tenant="astro"}'] == 4.0
        assert samples["serve_pending"] == 2.0
        assert samples['serve_latency_seconds_bucket{le="+Inf"}'] \
            == 4.0
        assert samples["serve_latency_seconds_count"] == 4.0

    def test_buckets_are_cumulative(self):
        text = to_prom_text(self._registry().snapshot())
        cums = [value for ident, value in
                parse_prom_text(text).items()
                if ident.startswith("serve_latency_seconds_bucket")]
        assert cums == sorted(cums)
        assert cums[-1] == 4.0

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            parse_prom_text("what is this\n")
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prom_text("x{} x\n".replace("{}", ""))
        with pytest.raises(ValueError, match="duplicate"):
            parse_prom_text("x 1\nx 2\n")

    def test_parser_rejects_non_cumulative_buckets(self):
        bad = ('h_bucket{le="0.1"} 5\n'
               'h_bucket{le="+Inf"} 3\n')
        with pytest.raises(ValueError, match="cumulative"):
            parse_prom_text(bad)

    def test_empty_snapshot_renders_empty(self):
        assert to_prom_text({"metrics": {}}) == ""

    def test_inf_formatting(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(math.inf)
        assert "g +Inf" in to_prom_text(registry.snapshot())
