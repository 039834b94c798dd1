"""Load-generator tests: seeded streams, live replay, replay contract."""

import threading

import numpy as np
import pytest

from repro.serve.loadgen import (
    LoadgenConfig,
    build_stream,
    render_report,
    run_loadgen,
)
from repro.serve.server import BlasService, ServeConfig, run_server
from repro.serve.tenant import TenantQuota
from repro.workloads import DEFAULT_TENANTS, multi_tenant_mix


class TestStream:
    def test_same_seed_same_stream(self):
        config = LoadgenConfig(count=50, seed=3)
        assert build_stream(config) == build_stream(config)

    def test_different_seed_different_stream(self):
        a = build_stream(LoadgenConfig(count=50, seed=3))
        b = build_stream(LoadgenConfig(count=50, seed=4))
        assert a != b

    def test_all_default_tenants_appear(self):
        stream = build_stream(LoadgenConfig(count=300, seed=0))
        names = {tenant for _, tenant, _ in stream}
        assert names == set(DEFAULT_TENANTS)

    def test_arrivals_monotone(self):
        stream = build_stream(LoadgenConfig(count=100, seed=0))
        times = [at for at, _, _ in stream]
        assert times == sorted(times)
        assert times[-1] > 0.0

    def test_traffic_weights_respected(self):
        rng = np.random.default_rng(0)
        stream = multi_tenant_mix(2000, rng,
                                  tenants={"big": 9.0, "small": 1.0})
        big = sum(1 for _, tenant, _ in stream if tenant == "big")
        assert 0.85 < big / 2000 < 0.95

    def test_specs_are_wire_valid(self):
        from repro.serve.protocol import validate_call

        for _, _, spec in build_stream(LoadgenConfig(count=80, seed=5)):
            validate_call(spec)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(count=0)
        with pytest.raises(ValueError):
            LoadgenConfig(drain_every=0)
        with pytest.raises(ValueError):
            LoadgenConfig(arrival_rate=0.0)


def _serve_in_thread(service):
    box = {}
    ready = threading.Event()

    def grab(port):
        box["port"] = port
        ready.set()

    thread = threading.Thread(target=run_server, args=(service,),
                              kwargs={"ready": grab}, daemon=True)
    thread.start()
    assert ready.wait(10)
    return thread, box["port"]


class TestLiveReplay:
    def test_end_to_end_multi_epoch(self):
        thread, port = _serve_in_thread(BlasService())
        config = LoadgenConfig(count=300, seed=42, drain_every=120,
                               shutdown=True)
        report = run_loadgen(config, port=port)
        thread.join(10)
        assert report["client"]["result_states"] == {"done": 300}
        assert [e["results"] for e in report["epochs"]] == [120, 120,
                                                           60]
        metrics = report["server_metrics"]
        assert metrics["jobs"]["completed"] == 300
        assert metrics["epochs"] == 3
        assert report["fairness"]["ok"]
        # every tenant got real latency percentiles
        for block in metrics["tenants"].values():
            assert block["latency_seconds"]["p99"] > 0.0

    def test_same_seed_reports_byte_identical(self):
        """The replay contract: fresh server + same seed -> same
        bytes, digests included."""
        reports = []
        for _ in range(2):
            thread, port = _serve_in_thread(BlasService())
            config = LoadgenConfig(count=120, seed=7, drain_every=60,
                                   shutdown=True)
            reports.append(render_report(run_loadgen(config,
                                                     port=port)))
            thread.join(10)
        assert reports[0] == reports[1]

    def test_quota_rejections_reported(self):
        service = BlasService(
            default_quota=TenantQuota(rate=1.0, burst=10))
        thread, port = _serve_in_thread(service)
        config = LoadgenConfig(count=90, seed=1, arrival_rate=None,
                               shutdown=True)
        report = run_loadgen(config, port=port)
        thread.join(10)
        reasons = report["client"]["reject_reasons"]
        assert reasons.get("quota_exhausted", 0) == 60
        accepted = sum(t["accepted"] for t in
                       report["client"]["per_tenant"].values())
        assert accepted == 30
        assert report["server_metrics"]["jobs"]["quota_throttles"] == 60

    def test_strict_fairness_block_present(self):
        thread, port = _serve_in_thread(
            BlasService(ServeConfig(blades=2)))
        config = LoadgenConfig(count=60, seed=9, shutdown=True)
        report = run_loadgen(config, port=port)
        thread.join(10)
        assert report["fairness"]["starved_tenants"] == []
        rendered = render_report(report)
        assert rendered.startswith("{")
        assert "starved_tenants" in rendered


class TestObservabilityInReport:
    def test_report_carries_slo_verdict(self):
        from repro.obs.slo import BurnWindow, SloObjective, SloSpec
        spec = SloSpec(objectives=(
            SloObjective(name="lat-tight", kind="latency",
                         threshold=1e-9, quantile=0.5,
                         windows=(BurnWindow(2.0),)),))
        thread, port = _serve_in_thread(BlasService(
            ServeConfig(slo=spec)))
        config = LoadgenConfig(count=40, seed=2, shutdown=True)
        report = run_loadgen(config, port=port)
        thread.join(10)
        assert report["slo"]["ok"] is False
        assert report["slo"]["breached"] == ["lat-tight"]

    def test_report_slo_is_null_without_spec(self):
        thread, port = _serve_in_thread(BlasService())
        config = LoadgenConfig(count=20, seed=3, shutdown=True)
        report = run_loadgen(config, port=port)
        thread.join(10)
        assert report["slo"] is None
        assert "registry" in report["server_metrics"]
        assert "flight" in report["server_metrics"]
