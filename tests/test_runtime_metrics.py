"""Tests for runtime metrics: percentiles, schema and export."""

import json

import numpy as np
import pytest

from repro.runtime import BlasRuntime
from repro.runtime.job import BlasRequest
from repro.runtime.metrics import (
    DeviceMetrics,
    RuntimeMetrics,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([3.5], 99) == 3.5

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_pct_zero_is_exact_minimum(self):
        values = [4.25, -1.5, 2.0, 9.75]
        assert percentile(values, 0) == -1.5
        # exactly the element, no interpolation residue
        assert percentile(values, 0) == min(values)

    def test_pct_hundred_is_exact_maximum(self):
        values = [4.25, -1.5, 2.0, 9.75]
        assert percentile(values, 100) == 9.75
        assert percentile(values, 100) == max(values)

    def test_two_element_interpolation(self):
        assert percentile([10.0, 20.0], 25) == pytest.approx(12.5)
        assert percentile([10.0, 20.0], 50) == pytest.approx(15.0)
        assert percentile([10.0, 20.0], 75) == pytest.approx(17.5)
        assert percentile([20.0, 10.0], 10) == pytest.approx(11.0)

    def test_two_element_endpoints_exact(self):
        assert percentile([10.0, 20.0], 0) == 10.0
        assert percentile([10.0, 20.0], 100) == 20.0

    def test_rejects_below_zero(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0, 2.0], -0.001)

    def test_rejects_above_hundred(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0, 2.0], 100.001)

    def test_boundary_values_accepted_on_empty(self):
        assert percentile([], 0) == 0.0
        assert percentile([], 100) == 0.0


class TestDeviceMetrics:
    def test_utilization(self):
        dev = DeviceMetrics(name="blade", busy_seconds=2.0)
        assert dev.utilization(4.0) == 0.5
        assert dev.utilization(0.0) == 0.0

    def test_to_dict_keys(self):
        payload = DeviceMetrics(name="blade").to_dict(1.0)
        assert {"name", "jobs_completed", "busy_seconds",
                "reconfig_seconds", "reconfigurations", "utilization",
                "flops", "batches", "resident_designs"} <= set(payload)


class TestRuntimeMetricsExport:
    @pytest.fixture
    def metrics(self):
        rng = np.random.default_rng(1)
        runtime = BlasRuntime(chassis=1, blades=2)
        for _ in range(6):
            runtime.submit(BlasRequest(
                "dot", (rng.standard_normal(128),
                        rng.standard_normal(128))))
        return runtime.run()

    def test_json_round_trips(self, metrics):
        payload = json.loads(metrics.to_json())
        assert payload["policy"] == "area"
        assert payload["device_count"] == 2
        assert payload["jobs"]["completed"] == 6
        assert payload["jobs"]["rejected"] == 0
        assert len(payload["devices"]) == 2
        assert payload["sustained_gflops"] > 0
        assert payload["latency_seconds"]["p99"] >= \
            payload["latency_seconds"]["p50"] > 0

    def test_utilization_bounded(self, metrics):
        for dev in metrics.devices:
            util = dev.utilization(metrics.makespan_seconds)
            assert 0.0 <= util <= 1.0

    def test_queue_depth_tracked(self, metrics):
        # Six jobs arrive at t=0 into an empty queue before placement.
        assert metrics.max_queue_depth == 6
        assert metrics.mean_queue_depth >= 0.0

    def test_summary_mentions_key_quantities(self, metrics):
        text = metrics.summary()
        assert "GFLOPS" in text
        assert "util %" in text
        assert "p50/p99" in text
        for dev in metrics.devices:
            assert dev.name in text

    def test_flops_sum_consistent(self, metrics):
        assert metrics.total_flops == sum(d.flops
                                          for d in metrics.devices)

    def test_empty_metrics_schema(self):
        metrics = RuntimeMetrics(
            policy="fifo", device_count=0, makespan_seconds=0.0,
            jobs_submitted=0, jobs_completed=0, jobs_failed=0,
            jobs_rejected=0, batches=0, deadline_misses=0,
            total_flops=0)
        payload = json.loads(metrics.to_json())
        assert payload["sustained_gflops"] == 0.0
        assert payload["mean_utilization"] == 0.0

