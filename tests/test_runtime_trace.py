"""End-to-end tests: tracing a runtime replay (the ISSUE acceptance).

Covers the acceptance criteria of the observability PR: a traced
``blas_request_mix`` replay exports Chrome trace-event JSON that is
byte-identical across seeded runs, contains job spans / reconfiguration
instants / queue-depth counter samples, and the drift report holds the
documented predictor bounds (gemm exact).
"""

import json

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_THRESHOLDS,
    NULL_RECORDER,
    TraceRecorder,
    chrome_trace_json,
    drift_report,
    to_jsonl,
)
from repro.runtime import BlasRuntime, JobState
from repro.runtime.job import BlasRequest
from repro.workloads import blas_request_mix


def _traced_mix(seed=0, jobs=40, **kwargs):
    rng = np.random.default_rng(seed)
    recorder = TraceRecorder()
    runtime = BlasRuntime(chassis=1, blades=6, recorder=recorder,
                          **kwargs)
    for at, request in blas_request_mix(jobs, rng, arrival_rate=2e4):
        runtime.submit(request, at=at)
    metrics = runtime.run()
    return recorder, runtime, metrics


class TestAcceptance:
    def test_chrome_trace_byte_identical_across_runs(self):
        first, _, _ = _traced_mix(seed=11)
        second, _, _ = _traced_mix(seed=11)
        assert chrome_trace_json(first) == chrome_trace_json(second)
        assert to_jsonl(first) == to_jsonl(second)

    def test_trace_contains_required_events(self):
        recorder, _, metrics = _traced_mix()
        trace = json.loads(chrome_trace_json(recorder))
        events = trace["traceEvents"]
        names = {e["name"] for e in events}
        assert any(n.startswith("job") and ":" in n for n in names)
        assert "reconfig.load" in names
        assert "queue_depth" in names
        assert "scheduler.place" in names
        # one job span per completed job
        job_spans = [e for e in events
                     if e["ph"] == "X" and e.get("cat") == "job"]
        assert len(job_spans) == metrics.jobs_completed

    def test_drift_within_documented_bounds(self):
        _, runtime, _ = _traced_mix()
        report = drift_report(runtime.jobs)
        ops = report.per_operation()
        assert ops["gemm"]["max_abs_rel_error"] == 0.0
        for op in ("dot", "gemv", "spmxv"):
            if op in ops:
                assert ops[op]["max_abs_rel_error"] <= \
                    DEFAULT_THRESHOLDS[op]
        assert report.ok


class TestRuntimeInstrumentation:
    def test_results_identical_with_and_without_tracing(self):
        _, traced, _ = _traced_mix(seed=5, jobs=12)
        rng = np.random.default_rng(5)
        plain = BlasRuntime(chassis=1, blades=6)
        for at, request in blas_request_mix(12, rng, arrival_rate=2e4):
            plain.submit(request, at=at)
        plain.run()
        for a, b in zip(traced.jobs, plain.jobs):
            assert a.state is b.state
            assert a.finished_at == b.finished_at
            if a.state is JobState.DONE:
                np.testing.assert_array_equal(a.result, b.result)

    def test_null_recorder_is_default(self):
        runtime = BlasRuntime(blades=1)
        assert runtime.recorder is NULL_RECORDER
        rng = np.random.default_rng(0)
        runtime.submit(BlasRequest("dot", (rng.standard_normal(64),
                                           rng.standard_normal(64))))
        runtime.run()  # no recorder state to accumulate, no crash

    def test_job_spans_cover_running_interval(self):
        recorder, runtime, _ = _traced_mix(jobs=10)
        for job in runtime.jobs:
            if job.state is not JobState.DONE:
                continue
            span = next(s for s in recorder.spans
                        if s.span_id == job.run_span_id)
            assert span.start == pytest.approx(job.started_at)
            assert span.end == pytest.approx(job.finished_at)
            assert span.track == job.device
            assert span.args["executed_cycles"] == \
                job.report.total_cycles

    def test_wait_spans_cover_queueing(self):
        recorder, runtime, _ = _traced_mix(jobs=10)
        waits = recorder.find_spans(cat="queue")
        done = [j for j in runtime.jobs if j.state is JobState.DONE]
        assert len(waits) >= len(done)
        by_name = {s.name: s for s in waits}
        for job in done:
            span = by_name[f"job{job.job_id}:wait"]
            assert span.start == pytest.approx(job.submitted_at)
            assert span.end == pytest.approx(job.started_at)

    def test_queue_depth_counter_tracks_max_depth(self):
        recorder, _, metrics = _traced_mix()
        samples = recorder.series("queue_depth")
        assert samples[0].value == 0.0
        assert max(s.value for s in samples) == metrics.max_queue_depth
        stamps = [s.ts for s in samples]
        assert stamps == sorted(stamps)

    def test_blade_busy_counters_alternate(self):
        recorder, runtime, _ = _traced_mix(jobs=10)
        device = runtime.devices[0]
        samples = [s.value for s in recorder.counters
                   if s.name == f"{device.name}:busy"]
        assert samples, "no busy samples for a used blade"
        assert samples == [1.0, 0.0] * (len(samples) // 2)

    def test_reconfig_span_matches_cost(self):
        recorder, runtime, _ = _traced_mix(jobs=10)
        spans = recorder.find_spans(cat="reconfig")
        assert spans
        for span in spans:
            assert span.duration == \
                pytest.approx(runtime.reconfig_seconds)

    def test_placement_reasons_recorded(self):
        recorder, _, _ = _traced_mix()
        places = [i for i in recorder.instants
                  if i.name == "scheduler.place"]
        assert places
        reasons = {i.args["reason"] for i in places}
        assert reasons <= {"resident", "best-fit", "evict-lru",
                           "first-feasible"}
        assert "resident" in reasons or "best-fit" in reasons

    def test_batch_formation_events(self):
        rng = np.random.default_rng(2)
        recorder = TraceRecorder()
        runtime = BlasRuntime(blades=1, recorder=recorder)
        A, B = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
        for _ in range(3):
            runtime.submit(BlasRequest("gemm", (A, B)))
        metrics = runtime.run()
        assert metrics.batches == 1
        batch = next(i for i in recorder.instants
                     if i.name == "batch.formed")
        assert batch.args["members"] == [0, 1, 2]

    def test_eviction_events(self):
        # One blade, alternating designs that cannot co-reside: the
        # second configuration must evict the first.
        rng = np.random.default_rng(4)
        recorder = TraceRecorder()
        runtime = BlasRuntime(blades=1, recorder=recorder)
        runtime.submit(BlasRequest("gemm", (rng.standard_normal((32, 32)),
                                            rng.standard_normal((32, 32)))))
        runtime.submit(BlasRequest("gemv", (rng.standard_normal((48, 48)),
                                            rng.standard_normal(48))))
        runtime.submit(BlasRequest("gemm", (rng.standard_normal((32, 32)),
                                            rng.standard_normal((32, 32)))))
        runtime.run()
        evictions = [i for i in recorder.instants
                     if i.name == "reconfig.evict"]
        assert evictions
        assert all(i.args["design"] for i in evictions)

    def test_affinity_wait_events(self):
        # blade0 runs a long gemm (holds the MM design); blade1 frees
        # first but placing the second gemm there would evict — the
        # area policy waits for blade0 and the trace says why.
        rng = np.random.default_rng(6)
        recorder = TraceRecorder()
        runtime = BlasRuntime(blades=2, policy="area",
                              recorder=recorder)
        runtime.submit(BlasRequest(
            "gemm", (rng.standard_normal((96, 96)),
                     rng.standard_normal((96, 96)))))
        runtime.submit(BlasRequest(
            "gemv", (rng.standard_normal((32, 32)),
                     rng.standard_normal(32))))
        late = BlasRequest("gemm", (rng.standard_normal((96, 96)),
                                    rng.standard_normal((96, 96))))
        runtime.submit(late, at=1e-4)
        metrics = runtime.run()
        assert metrics.jobs_failed == 0
        waits = [i for i in recorder.instants
                 if i.name == "scheduler.wait"]
        assert waits
        assert "waiting for" in waits[0].args["reason"]

    def test_rejected_jobs_emit_instants(self):
        rng = np.random.default_rng(8)
        recorder = TraceRecorder()
        runtime = BlasRuntime(blades=1, queue_capacity=1,
                              recorder=recorder)
        for _ in range(4):
            runtime.submit(BlasRequest(
                "dot", (rng.standard_normal(64),
                        rng.standard_normal(64))))
        metrics = runtime.run()
        rejected = [i for i in recorder.instants
                    if i.name == "job.rejected"]
        assert len(rejected) == metrics.jobs_rejected > 0

    def test_runtime_run_span_covers_makespan(self):
        recorder, _, metrics = _traced_mix(jobs=10)
        run_span = next(s for s in recorder.spans
                        if s.name == "runtime.run")
        assert run_span.end == pytest.approx(metrics.makespan_seconds)
        assert run_span.args["jobs_completed"] == \
            metrics.jobs_completed
