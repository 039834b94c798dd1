"""Gang scheduling: multi-FPGA gemm jobs inside the runtime.

A gemm whose plan wants ``l`` blades must acquire them *atomically*
and co-located on one chassis, pay reconfiguration on every member,
charge the Section 5.2 n³/(k·l) timing model, degrade to a narrower
array when a member crashes, and never starve behind a stream of
single-blade jobs — all without disturbing the runtime's determinism
guarantees (same seed → byte-identical metrics and traces).
"""

import numpy as np
import pytest

from repro.blas.api import BlasCall
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.obs import TraceRecorder, chrome_trace_json
from repro.runtime import TERMINAL_STATES, BlasRuntime, JobState
from repro.runtime.job import BlasRequest, Job
from repro.runtime.scheduler import make_policy
from repro.workloads import gemm_burst

MAX_RETRIES = 3


def _gemm_request(rng, n, **kwargs):
    return BlasRequest("gemm", (rng.standard_normal((n, n)),
                                rng.standard_normal((n, n))), **kwargs)


def _run_one(rng, n, *, chassis=1, blades=6, max_gang=4, **kwargs):
    runtime = BlasRuntime(chassis=chassis, blades=blades,
                          max_gang=max_gang, **kwargs)
    job = runtime.submit(_gemm_request(rng, n))
    metrics = runtime.run()
    return runtime, job, metrics


class TestGangFormation:
    def test_gang_forms_co_located(self, rng):
        runtime, job, metrics = _run_one(rng, 512, chassis=2, blades=4)
        assert job.state is JobState.DONE
        assert job.gang_size == 4
        assert len(job.gang_devices) == 4
        chassis_names = {name.rsplit("/", 1)[0]
                         for name in job.gang_devices}
        assert len(chassis_names) == 1
        assert metrics.gangs_formed == 1
        assert metrics.blades_per_job == {"4": 1}
        A, B = job.request.operands
        assert np.allclose(job.result, A @ B)

    def test_every_member_pays_reconfiguration(self, rng):
        runtime, job, _ = _run_one(rng, 512, blades=4)
        members = [d for d in runtime.devices
                   if d.name in job.gang_devices]
        assert len(members) == 4
        for device in members:
            assert device.metrics.reconfigurations == 1
            assert device.metrics.reconfig_seconds > 0.0
            assert device.metrics.gang_jobs == 1
            assert device.metrics.busy_seconds > 0.0

    def test_gang_charges_model_not_single_blade_time(self, rng):
        _, gang_job, gang = _run_one(rng, 512, blades=6, max_gang=4)
        _, single_job, single = _run_one(rng, 512, blades=1, max_gang=1)
        # n³/(k·l) plus per-member reconfig: well under half the
        # single-blade makespan at l=4.
        assert gang.makespan_seconds < 0.5 * single.makespan_seconds
        assert gang_job.charged_seconds < single_job.charged_seconds

    def test_falls_back_to_machine_width(self, rng):
        # max_gang=4 but only 2 blades exist: plan at l=2, not deadlock.
        runtime, job, metrics = _run_one(rng, 512, blades=2, max_gang=4)
        assert job.state is JobState.DONE
        assert job.gang_size == 2
        assert metrics.blades_per_job == {"2": 1}

    def test_single_blade_system_degrades_to_l1(self, rng):
        runtime, job, metrics = _run_one(rng, 512, blades=1, max_gang=4)
        assert job.state is JobState.DONE
        assert (job.gang_size or 1) == 1
        assert metrics.gangs_formed == 0

    def test_small_gemm_does_not_gang(self, rng):
        # n=64 is one m-block: nothing to stripe over a second FPGA.
        runtime, job, metrics = _run_one(rng, 64, blades=6, max_gang=4)
        assert job.state is JobState.DONE
        assert (job.gang_size or 1) == 1
        assert metrics.gangs_formed == 0

    def test_request_max_blades_caps_the_gang(self, rng):
        runtime = BlasRuntime(blades=6, max_gang=8)
        job = runtime.submit(_gemm_request(rng, 512, max_blades=2))
        metrics = runtime.run()
        assert job.gang_size == 2
        assert metrics.blades_per_job == {"2": 1}

    def test_flops_and_jobs_sum_over_members(self, rng):
        runtime, job, metrics = _run_one(rng, 512, blades=4)
        assert metrics.total_flops == sum(d.metrics.flops
                                          for d in runtime.devices)
        assert metrics.jobs_completed == sum(
            d.metrics.jobs_completed for d in runtime.devices)

    def test_gang_formed_instant_in_trace(self, rng):
        recorder = TraceRecorder()
        runtime = BlasRuntime(blades=4, max_gang=4, recorder=recorder)
        runtime.submit(_gemm_request(rng, 512))
        runtime.run()
        assert any(i.name == "gang.formed" for i in recorder.instants)
        assert any(":gang[" in s.name for s in recorder.spans)


class TestNoStarvation:
    def _gang_job(self, job_id, n=512, l=4):
        request = BlasRequest("gemm",
                              (np.zeros((n, n)), np.zeros((n, n))))
        return Job(job_id=job_id, request=request,
                   plan=BlasCall("gemm", shape=(n, n, n),
                                 blades=l).plan())

    def test_waiting_gang_reserves_anchor_chassis(self, rng):
        runtime = BlasRuntime(chassis=1, blades=4)
        free, busy = runtime.devices[:2], runtime.devices[2:]
        policy = make_policy("area")
        gang = self._gang_job(1)
        placement, reason = policy.select([gang], free, busy)
        assert placement is None
        assert "waiting to gang 4 blade(s)" in reason
        assert "2 free blade(s) reserved" in reason

    def test_reserved_blades_refused_to_small_jobs(self, rng):
        runtime = BlasRuntime(chassis=1, blades=4)
        free, busy = runtime.devices[:2], runtime.devices[2:]
        policy = make_policy("fifo")
        small_plan = runtime._call(_gemm_request(rng, 64)).plan()
        # Gang ahead of the small job (FIFO = job_id order): both free
        # blades are held for the gang, nothing places.
        gang = self._gang_job(1)
        small = Job(job_id=2, request=_gemm_request(rng, 64),
                    plan=small_plan)
        placement, reason = policy.select([gang, small], free, busy)
        assert placement is None
        assert reason.startswith("job 1 waiting to gang")
        # A small job *ahead* of the gang in policy order still runs.
        first = Job(job_id=1, request=_gemm_request(rng, 64),
                    plan=small_plan)
        placement, reason = policy.select([first, self._gang_job(2)],
                                          free, busy)
        assert placement is not None
        assert reason is None
        assert placement.job is first

    def test_gang_completes_against_stream_of_small_jobs(self, rng):
        runtime = BlasRuntime(blades=4, max_gang=4)
        gang_job = runtime.submit(_gemm_request(rng, 512), at=0.0)
        small = [runtime.submit(_gemm_request(rng, 64), at=i * 1e-5)
                 for i in range(40)]
        metrics = runtime.run()
        assert gang_job.state is JobState.DONE
        assert gang_job.gang_size == 4
        assert all(j.state is JobState.DONE for j in small)
        assert metrics.jobs_completed == 41


class TestGangFaults:
    def _crash_plan(self, target, at=0.004, duration=0.01):
        return FaultPlan(events=(FaultEvent(FaultKind.BLADE_CRASH,
                                            at=at, target=target,
                                            duration=duration),),
                         seed=1)

    def test_member_crash_degrades_and_completes(self, rng):
        plan = self._crash_plan("xd1/chassis0/blade1")
        runtime = BlasRuntime(blades=6, max_gang=4, fault_plan=plan,
                              max_retries=MAX_RETRIES)
        job = runtime.submit(_gemm_request(rng, 512))
        metrics = runtime.run()
        assert job.state is JobState.DONE
        assert job.retries == 1
        assert job.gang_limit == 2
        assert job.gang_size == 2
        assert metrics.gangs_degraded == 1
        assert metrics.gangs_formed == 2  # original + degraded retry
        A, B = job.request.operands
        assert np.allclose(job.result, A @ B)

    def test_no_blade_left_reserved_after_crash(self, rng):
        plan = self._crash_plan("xd1/chassis0/blade2")
        runtime = BlasRuntime(blades=6, max_gang=4, fault_plan=plan,
                              max_retries=MAX_RETRIES)
        runtime.submit(_gemm_request(rng, 512))
        metrics = runtime.run()
        for device in runtime.devices:
            assert device.free_at <= metrics.makespan_seconds
        # A follow-up workload still schedules on every blade.
        follow = BlasRuntime(blades=6, max_gang=4)
        jobs = [follow.submit(_gemm_request(rng, 64), at=0.0)
                for _ in range(12)]
        follow.run()
        assert all(j.state is JobState.DONE for j in jobs)

    def test_degraded_instant_in_trace(self, rng):
        recorder = TraceRecorder()
        plan = self._crash_plan("xd1/chassis0/blade1")
        runtime = BlasRuntime(blades=6, max_gang=4, fault_plan=plan,
                              max_retries=MAX_RETRIES,
                              recorder=recorder)
        runtime.submit(_gemm_request(rng, 512))
        runtime.run()
        names = [i.name for i in recorder.instants]
        assert "gang.degraded" in names
        assert "fault.injected" in names


def _gang_storm_run(seed, recorder=None):
    rng = np.random.default_rng(seed)
    plan = FaultPlan.storm(seed, horizon=0.05, crash_rate=40.0,
                           reconfig_rate=30.0, stall_rate=30.0,
                           corrupt_rate=40.0, crash_duration=2e-3)
    runtime = BlasRuntime(blades=6, max_gang=4, fault_plan=plan,
                          max_retries=MAX_RETRIES, recorder=recorder)
    for i in range(6):
        runtime.submit(_gemm_request(rng, 256), at=i * 1e-3)
    metrics = runtime.run()
    return runtime, metrics


class TestGangChaos:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_gang_job_terminates(self, seed):
        runtime, metrics = _gang_storm_run(seed)
        for job in runtime.jobs:
            assert job.state in TERMINAL_STATES
            if job.state is JobState.DONE:
                A, B = job.request.operands
                assert np.allclose(job.result, A @ B, atol=1e-8)
        terminal = (metrics.jobs_completed + metrics.jobs_failed
                    + metrics.jobs_rejected)
        assert terminal == metrics.jobs_submitted

    @pytest.mark.parametrize("seed", [3, 11])
    def test_same_seed_gang_storm_is_byte_identical(self, seed):
        exports = []
        for _ in range(2):
            recorder = TraceRecorder()
            _, metrics = _gang_storm_run(seed, recorder=recorder)
            exports.append((metrics.to_json(),
                            chrome_trace_json(recorder)))
        assert exports[0][0] == exports[1][0]
        assert exports[0][1] == exports[1][1]

    def test_gang_burst_metrics_invariants(self, rng):
        runtime = BlasRuntime(blades=6, max_gang=2)
        for at, request in gemm_burst(6, 256, rng):
            runtime.submit(request, at=at)
        metrics = runtime.run()
        assert metrics.jobs_completed == 6
        assert metrics.gangs_formed == 6
        assert metrics.blades_per_job == {"2": 6}
        assert metrics.total_flops == sum(d.metrics.flops
                                          for d in runtime.devices)
        assert sum(d.metrics.gang_jobs
                   for d in runtime.devices) == 12
