"""Executor resilience under scripted (non-random) fault plans.

Each test pins one fault kind to one deterministic event so the
runtime's reaction — retry, quarantine, verification, degradation —
can be asserted exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.blas import api
from repro.device.area import USABLE_SLICE_FRACTION
from repro.device.node import make_xd1_node
from repro.device.system import Chassis
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.runtime import (
    BlasRequest,
    BlasRuntime,
    JobState,
    RejectReason,
)


def _dot_request(n=256, seed=0):
    rng = np.random.default_rng(seed)
    return BlasRequest("dot", (rng.standard_normal(n),
                               rng.standard_normal(n)))


def _gemm_request(n=16, seed=0, k=None):
    rng = np.random.default_rng(seed)
    return BlasRequest("gemm", (rng.standard_normal((n, n)),
                                rng.standard_normal((n, n))), k=k)


def _run_one(request, plan, **kwargs):
    runtime = BlasRuntime(blades=1, fault_plan=plan, **kwargs)
    job = runtime.submit(request)
    metrics = runtime.run()
    return runtime, job, metrics


def _job_window(request):
    """(start, end) of the request's standalone run on a fresh blade:
    one reconfiguration then the planned cycles."""
    runtime = BlasRuntime(blades=1)
    job = runtime.submit(request)
    metrics = runtime.run()
    return (metrics.makespan_seconds - job.charged_seconds,
            metrics.makespan_seconds)


class TestBladeCrash:
    def test_mid_run_crash_retries_and_completes(self):
        request = _dot_request()
        start, end = _job_window(_dot_request())
        crash_at = (start + end) / 2
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BLADE_CRASH, crash_at, duration=1e-4),))
        runtime, job, metrics = _run_one(request, plan,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert job.retries == 1
        assert job.fault_history and "crash" in job.fault_history[0]
        assert metrics.faults_injected == 1
        assert metrics.retries_total == 1
        assert metrics.jobs_retried == 1
        assert metrics.devices[0].faults == 1
        assert metrics.devices[0].downtime_seconds == pytest.approx(1e-4)
        # the retry re-ran after the crash, so the makespan grew
        assert metrics.makespan_seconds > end
        assert job.result == pytest.approx(
            float(np.dot(*request.operands)))

    def test_idle_crash_only_costs_downtime(self):
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BLADE_CRASH, 0.0, duration=5e-4),))
        runtime, job, metrics = _run_one(_dot_request(), plan,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert job.retries == 0
        # the blade was down before anything ran: the job just waits
        assert job.started_at >= 5e-4

    def test_retry_budget_exhaustion_fails_the_job(self):
        request = _dot_request()
        start, end = _job_window(_dot_request())
        crash_at = (start + end) / 2
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BLADE_CRASH, crash_at, duration=1e-4),))
        runtime, job, metrics = _run_one(request, plan, max_retries=0,
                                         quarantine_after=None)
        assert job.state is JobState.FAILED
        assert "retry budget exhausted" in job.error
        assert job.retries == 0
        assert metrics.jobs_failed == 1

    def test_crash_aborts_whole_batch(self):
        runtime = BlasRuntime(blades=1, quarantine_after=None,
                              fault_plan=FaultPlan(events=(FaultEvent(
                                  FaultKind.BLADE_CRASH, 1e-9,
                                  duration=1e-5),)))
        jobs = [runtime.submit(_gemm_request(seed=s)) for s in range(3)]
        metrics = runtime.run()
        # all three coalesced into one batch; the crash at dispatch
        # time sent every member back for a retry
        assert all(j.state is JobState.DONE for j in jobs)
        assert all(j.retries == 1 for j in jobs)
        assert metrics.retries_total == 3
        assert metrics.faults_injected == 1


class TestReconfigFailure:
    def test_transient_failure_charges_an_extra_load(self):
        request = _dot_request()
        baseline = BlasRuntime(blades=1)
        baseline.submit(_dot_request())
        clean = baseline.run()
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.RECONFIG_FAIL, 0.0),))
        runtime, job, metrics = _run_one(request, plan,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert job.retries == 0  # transient: absorbed, not retried
        assert metrics.makespan_seconds == pytest.approx(
            clean.makespan_seconds + runtime.reconfig_seconds)
        assert metrics.devices[0].reconfig_seconds == pytest.approx(
            2 * runtime.reconfig_seconds)
        # but only one *successful* configuration happened
        assert metrics.devices[0].reconfigurations == 1

    def test_resident_design_defers_the_failure(self):
        # the failure comes due while the design is already resident:
        # no bitstream load would happen, so nothing may be consumed or
        # charged — the event waits for the next real load
        baseline = BlasRuntime(blades=1)
        for seed in range(2):
            baseline.submit(_dot_request(seed=seed))
        clean = baseline.run()
        start, end = _job_window(_dot_request())
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.RECONFIG_FAIL, (start + end) / 2),))
        runtime = BlasRuntime(blades=1, fault_plan=plan,
                              quarantine_after=None)
        jobs = [runtime.submit(_dot_request(seed=s)) for s in range(2)]
        metrics = runtime.run()
        assert all(j.state is JobState.DONE for j in jobs)
        # job 2 reuses job 1's resident design, so the due failure was
        # skipped: no extra load time, no fault, no health strike
        assert metrics.makespan_seconds == pytest.approx(
            clean.makespan_seconds)
        assert metrics.faults_injected == 0
        assert metrics.devices[0].faults == 0
        assert metrics.devices[0].reconfig_seconds == pytest.approx(
            runtime.reconfig_seconds)


class TestMemStall:
    def test_stall_stretches_the_run(self):
        request = _dot_request()
        start, end = _job_window(_dot_request())
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.MEM_STALL, (start + end) / 2, multiplier=3.0),))
        baseline = BlasRuntime(blades=1)
        base_job = baseline.submit(_dot_request())
        baseline.run()
        runtime, job, metrics = _run_one(request, plan,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert job.charged_seconds == pytest.approx(
            3.0 * base_job.charged_seconds)
        assert job.result == pytest.approx(base_job.result)
        assert metrics.faults_injected == 1


class TestCorruptionAndVerification:
    def test_detected_corruption_is_retried_to_a_correct_result(self):
        request = _gemm_request()
        _, end = _job_window(_gemm_request())
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BIT_FLIP, end / 2, word=0, bit=63),), seed=4)
        runtime, job, metrics = _run_one(request, plan,
                                         quarantine_after=None)
        assert runtime.verify_results  # auto-enabled by the plan
        assert job.state is JobState.DONE
        assert job.retries == 1
        assert metrics.verify_failures == 1
        assert metrics.corruptions_injected == 1
        A, B = request.operands
        assert np.allclose(job.result, A @ B)
        # the discarded first attempt still occupied the blade
        assert metrics.devices[0].busy_seconds == pytest.approx(
            2 * job.charged_seconds)

    def test_nan_corruption_fails_verification(self):
        # flipping the top exponent bit (62) of a result in [1, 2)
        # yields NaN; 'NaN > tolerance' is False, so the residual check
        # must treat non-finite residuals as failures, not passes
        u = np.zeros(256)
        v = np.zeros(256)
        u[0], v[0] = 1.5, 1.0
        request = BlasRequest("dot", (u, v))
        _, end = _job_window(BlasRequest("dot", (u.copy(), v.copy())))
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BIT_FLIP, end / 2, word=0, bit=62),))
        runtime, job, metrics = _run_one(request, plan,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert job.retries == 1
        assert metrics.verify_failures == 1
        assert np.isfinite(job.result)
        assert job.result == pytest.approx(1.5)

    def test_nan_corruption_escapes_without_verification(self):
        # sanity check on the scenario above: without the residual
        # check the NaN really would have been returned as DONE
        u = np.zeros(256)
        v = np.zeros(256)
        u[0], v[0] = 1.5, 1.0
        request = BlasRequest("dot", (u, v))
        _, end = _job_window(BlasRequest("dot", (u.copy(), v.copy())))
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BIT_FLIP, end / 2, word=0, bit=62),))
        runtime, job, metrics = _run_one(request, plan,
                                         verify_results=False,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert np.isnan(job.result)

    def test_verification_runs_without_a_fault_plan(self):
        # explicit verify_results=True must check results even with no
        # injector: an impossible tolerance fails every attempt until
        # the retry budget is spent
        runtime = BlasRuntime(blades=1, verify_results=True,
                              verify_tolerance=1e-30, max_retries=2)
        job = runtime.submit(_dot_request())
        metrics = runtime.run()
        assert job.state is JobState.FAILED
        assert "verification failed" in job.error
        assert job.retries == 2
        assert metrics.verify_failures == 3

    def test_verification_without_a_plan_accepts_clean_results(self):
        runtime = BlasRuntime(blades=1, verify_results=True)
        job = runtime.submit(_dot_request())
        metrics = runtime.run()
        assert job.state is JobState.DONE
        assert metrics.verify_failures == 0

    def test_unverified_corruption_escapes(self):
        request = _gemm_request()
        _, end = _job_window(_gemm_request())
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BIT_FLIP, end / 2, word=0, bit=63),), seed=4)
        runtime, job, metrics = _run_one(request, plan,
                                         verify_results=False,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert job.retries == 0
        assert metrics.verify_failures == 0
        A, B = request.operands
        assert not np.allclose(job.result, A @ B)

    def test_verification_alone_accepts_clean_results(self):
        # a crash-only plan turns verification off by default but it
        # can be forced on; clean results must pass the residual check
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BLADE_CRASH, 0.0, duration=1e-6),))
        runtime, job, metrics = _run_one(_gemm_request(), plan,
                                         verify_results=True,
                                         quarantine_after=None)
        assert job.state is JobState.DONE
        assert metrics.verify_failures == 0


class TestQuarantine:
    def test_repeated_faults_quarantine_the_blade(self):
        events = tuple(FaultEvent(FaultKind.BLADE_CRASH, at,
                                  target="xd1/chassis0/blade0",
                                  duration=1e-5)
                       for at in (0.0, 1e-4, 2e-4))
        runtime = BlasRuntime(blades=2, quarantine_after=3,
                              fault_plan=FaultPlan(events=events))
        jobs = [runtime.submit(_dot_request(seed=s), at=i * 1e-4)
                for i, s in enumerate(range(4))]
        metrics = runtime.run()
        assert metrics.blades_quarantined == 1
        assert metrics.devices[0].quarantined
        assert not metrics.devices[1].quarantined
        assert all(j.state is JobState.DONE for j in jobs)
        # after quarantine, every job ran on the surviving blade
        late = [j for j in jobs if j.started_at > 2e-4]
        assert late and all(j.device == "xd1/chassis0/blade1"
                            for j in late)

    def test_all_blades_lost_rejects_with_capacity_reason(self):
        events = tuple(FaultEvent(FaultKind.BLADE_CRASH, 0.0,
                                  duration=1e-6) for _ in range(1))
        runtime = BlasRuntime(blades=1, quarantine_after=1,
                              fault_plan=FaultPlan(events=events))
        job = runtime.submit(_dot_request(), at=1e-3)
        metrics = runtime.run()
        assert job.state is JobState.REJECTED
        assert job.reject_reason is RejectReason.CAPACITY_LOST
        assert "capacity lost" in job.error
        assert metrics.capacity_rejections == 1
        assert metrics.jobs_rejected == 1


class TestDegradation:
    def _hetero_chassis(self, big_plan_slices, small_plan_slices):
        """One full-size blade plus one whose FPGA only fits the
        smaller design."""
        big = make_xd1_node("big")
        usable = (big_plan_slices + small_plan_slices) // 2
        small_fpga = dataclasses.replace(
            big.fpga, name="small-fpga",
            slices=int(usable / USABLE_SLICE_FRACTION))
        small = dataclasses.replace(big, name="small", fpga=small_fpga)
        return Chassis("hetero", [big, small],
                       intra_link_bandwidth=8.0e9)

    def test_capacity_loss_degrades_k_instead_of_rejecting(self):
        n = 16
        wide = api.BlasCall("gemm", shape=(n, n, n), k=8).plan()
        narrow = api.BlasCall("gemm", shape=(n, n, n), k=2).plan()
        assert narrow.area.slices < wide.area.slices
        chassis = self._hetero_chassis(wide.area.slices,
                                       narrow.area.slices)
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BLADE_CRASH, 0.0, target="big", duration=1e-6),))
        runtime = BlasRuntime(chassis, fault_plan=plan,
                              quarantine_after=1)
        request = _gemm_request(n=n, k=8)
        job = runtime.submit(request, at=1e-3)
        metrics = runtime.run()
        assert job.state is JobState.DONE
        assert job.degraded_from_k == 8
        assert job.request.k < 8
        assert job.device == "small"
        assert metrics.jobs_degraded == 1
        A, B = request.operands
        assert np.allclose(job.result, A @ B)

    def test_degradation_can_be_disabled(self):
        n = 16
        wide = api.BlasCall("gemm", shape=(n, n, n), k=8).plan()
        narrow = api.BlasCall("gemm", shape=(n, n, n), k=2).plan()
        chassis = self._hetero_chassis(wide.area.slices,
                                       narrow.area.slices)
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BLADE_CRASH, 0.0, target="big", duration=1e-6),))
        runtime = BlasRuntime(chassis, fault_plan=plan,
                              quarantine_after=1, degrade=False)
        job = runtime.submit(_gemm_request(n=n, k=8), at=1e-3)
        metrics = runtime.run()
        assert job.state is JobState.REJECTED
        assert job.reject_reason is RejectReason.CAPACITY_LOST
        assert metrics.jobs_degraded == 0


class TestParityAndValidation:
    def test_empty_plan_changes_nothing(self):
        def build(plan):
            runtime = BlasRuntime(blades=2, fault_plan=plan)
            for seed in range(5):
                runtime.submit(_dot_request(seed=seed), at=seed * 1e-4)
            return runtime

        m_none = build(None).run()
        m_empty = build(FaultPlan.empty()).run()
        assert m_none.to_json() == m_empty.to_json()
        assert m_none.summary() == m_empty.summary()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BlasRuntime(blades=1, max_retries=-1)
        with pytest.raises(ValueError):
            BlasRuntime(blades=1, retry_backoff_seconds=0.0)
        with pytest.raises(ValueError):
            BlasRuntime(blades=1, quarantine_after=0)
        with pytest.raises(ValueError):
            BlasRuntime(blades=1, verify_tolerance=0.0)

    def test_fault_instants_reach_the_trace(self):
        from repro.obs import TraceRecorder

        request = _dot_request()
        start, end = _job_window(_dot_request())
        plan = FaultPlan(events=(FaultEvent(
            FaultKind.BLADE_CRASH, (start + end) / 2, duration=1e-4),))
        recorder = TraceRecorder()
        runtime = BlasRuntime(blades=1, fault_plan=plan,
                              quarantine_after=1, recorder=recorder)
        runtime.submit(request)
        runtime.run()
        names = {i.name for i in recorder.instants}
        assert {"fault.injected", "job.retry",
                "blade.quarantined"} <= names
