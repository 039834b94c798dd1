"""Telemetry overhead — O(1) memory no matter how many requests flow.

The PR's acceptance bar for ``repro.obs.live``: a long replay must not
grow the telemetry state.  Two studies:

* **Registry state.** Feed 1k vs 100k observations through a
  counter + histogram + SLO monitor + flight recorder stack and
  assert the serialized snapshot size is flat (identical structure,
  same bucket count order) — the histogram's bucket array is fixed
  by its boundaries, not by traffic.
* **Quantile fidelity.** At 100k lognormal samples the histogram's
  p50/p90/p99 stay within the documented ``error_bound`` of the
  exact nearest-rank order statistic.
"""

import json

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.sampling import FlightRecorder
from repro.obs.slo import BurnWindow, SloMonitor, SloObjective, SloSpec
from repro.runtime.metrics import percentile


def _drive_stack(count, rng):
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    hist = registry.histogram("latency_seconds")
    monitor = SloMonitor(SloSpec(objectives=(
        SloObjective(name="lat", kind="latency", threshold=1e-2,
                     windows=(BurnWindow(0.25), BurnWindow(2.0))),)))
    # ~2% of the lognormal stream crosses the tail threshold, so both
    # ring buffers saturate within the first few thousand requests.
    flight = FlightRecorder(capacity=64, head_probability=0.01,
                            tail_latency_seconds=4e-3)
    latencies = rng.lognormal(mean=-8.0, sigma=1.2, size=count)
    for i, latency in enumerate(latencies):
        ts = i * 1e-4
        counter.inc()
        hist.observe(latency)
        monitor.observe_result(ts, "astro", latency_seconds=latency)
        flight.record(ts, tenant="astro", latency_seconds=latency)
    monitor.evaluate()
    return registry, monitor, flight, latencies


class TestFlatTelemetryState:
    def test_snapshot_size_is_flat(self, rng):
        # Baseline at 10k so the flight rings (fixed 64-entry
        # capacity) are already full — below that the snapshot is
        # still ramping toward its bounded size.
        sizes = {}
        for count in (10_000, 100_000):
            registry, monitor, flight, _ = _drive_stack(count, rng)
            blob = json.dumps({
                "registry": registry.snapshot(),
                "slo": monitor.verdict(),
                "flight": flight.dump(),
            }, sort_keys=True)
            sizes[count] = len(blob)
        print(f"\ntelemetry snapshot bytes: 10k={sizes[10_000]} "
              f"100k={sizes[100_000]} "
              f"(x{sizes[100_000] / sizes[10_000]:.2f})")
        # 10x the traffic must cost < 1.2x the snapshot (the slack
        # is more populated histogram buckets and longer integers,
        # not per-request state).
        assert sizes[100_000] < 1.2 * sizes[10_000]

    def test_flight_rings_bounded(self, rng):
        _, _, flight, _ = _drive_stack(100_000, rng)
        stats = flight.stats()
        assert stats["seen"] == 100_000
        assert stats["head_held"] <= 64
        assert stats["tail_held"] <= 64


class TestQuantileFidelityAtScale:
    def test_p50_p90_p99_within_bound(self, rng):
        _, _, _, latencies = _drive_stack(100_000, rng)
        hist = Histogram()
        hist.observe_many(latencies.tolist())
        rows = []
        for pct in (50.0, 90.0, 99.0):
            exact = percentile(latencies.tolist(), pct)
            estimate = hist.quantile(pct / 100.0)
            rel = abs(estimate - exact) / exact
            rows.append((pct, exact, estimate, rel))
            assert rel <= hist.error_bound, (pct, rel)
        print("\nhistogram vs exact percentile (100k samples):")
        for pct, exact, estimate, rel in rows:
            print(f"  p{pct:.0f}: exact {exact:.3e}  "
                  f"hist {estimate:.3e}  rel {rel:.4f} "
                  f"(bound {hist.error_bound:.4f})")

