"""Unified observability: structured tracing, time-series, drift.

The paper's headline claims are *timeline* claims — the reduction
circuit finishes within ``Σ sᵢ + 2α²`` cycles, MVM sustains 97 %
utilization, the XD1 overlaps compute with RapidArray transfers — so
this package gives the reproduction a timeline lens between the
end-of-run aggregates of :mod:`repro.runtime.metrics` and the raw
per-cycle rows of :mod:`repro.sim.trace`:

* :mod:`repro.obs.recorder` — :class:`TraceRecorder` records spans,
  instant events and counter time-series in the executor's
  deterministic virtual time; :class:`NullRecorder` drops every
  event (tracing off).
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto
  or ``chrome://tracing``) and JSON-lines exporters.
* :mod:`repro.obs.drift` — plan-vs-actual profiling: compares each
  job's ``BlasCall.plan()`` predicted cycles against the executed
  cycle count and flags kernels whose predictor drifts past its
  documented bound (gemm exact; dot/gemv 5 %; spmxv 10 %).
* :mod:`repro.obs.bridge` — attaches :class:`repro.sim.trace.Tracer`
  kernel traces as child spans of the runtime job that launched them.
* :mod:`repro.obs.metrics` — streaming O(1) telemetry: counters,
  gauges, log-bucket histograms with bounded-error quantiles, a
  :class:`MetricsRegistry` with byte-identical snapshots and a
  Prometheus-style exposition.
* :mod:`repro.obs.slo` — declarative SLOs (latency, error/reject
  ratio, starvation, drift) with multi-window burn-rate evaluation
  emitting ``slo.breach`` instants and a machine-readable verdict.
* :mod:`repro.obs.sampling` — :class:`FlightRecorder`: head + tail
  trace sampling in bounded rings with breach dumps and a
  slowest-request exemplar.

Entry points: ``BlasRuntime(recorder=TraceRecorder())``, the
``repro trace`` CLI subcommand, ``repro runtime --trace-out``, and
the serving stack's ``repro serve --metrics-out/--slo-spec`` +
``repro top`` (docs/observability.md, "Live telemetry").
"""

from repro.obs.bridge import attach_kernel_trace
from repro.obs.drift import (
    DEFAULT_THRESHOLDS,
    DriftEntry,
    DriftReport,
    drift_report,
)
from repro.obs.export import (
    chrome_trace_json,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RateWindow,
    log_boundaries,
    parse_prom_text,
    to_prom_text,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    CounterSample,
    Instant,
    NullRecorder,
    Span,
    TraceRecorder,
)
from repro.obs.sampling import FlightRecorder
from repro.obs.slo import (
    BurnWindow,
    SloMonitor,
    SloObjective,
    SloSpec,
)

__all__ = [
    "Span",
    "Instant",
    "CounterSample",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "DriftEntry",
    "DriftReport",
    "drift_report",
    "DEFAULT_THRESHOLDS",
    "attach_kernel_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RateWindow",
    "log_boundaries",
    "to_prom_text",
    "parse_prom_text",
    "BurnWindow",
    "SloObjective",
    "SloSpec",
    "SloMonitor",
    "FlightRecorder",
]
