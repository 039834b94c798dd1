"""Tests for the scheduling policies, including the ISSUE's edge
cases: empty-queue drain, oversubscription, backpressure rejection and
deterministic tie-breaking."""

import numpy as np
import pytest

from repro.runtime import (
    BlasRuntime,
    JobState,
    make_policy,
)
from repro.runtime.job import BlasRequest
from repro.runtime.scheduler import POLICIES


def _dot_request(rng, n=64, **kwargs):
    return BlasRequest("dot", (rng.standard_normal(n),
                               rng.standard_normal(n)), **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestPolicyRegistry:
    def test_all_policies_constructible(self):
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("random")


class TestEmptyQueue:
    def test_empty_run_is_clean(self):
        runtime = BlasRuntime(chassis=1, blades=2)
        metrics = runtime.run()
        assert metrics.jobs_submitted == 0
        assert metrics.makespan_seconds == 0.0
        assert metrics.sustained_gflops == 0.0
        assert metrics.max_queue_depth == 0

    def test_run_twice_rejected(self):
        runtime = BlasRuntime(chassis=1, blades=1)
        runtime.run()
        with pytest.raises(RuntimeError):
            runtime.run()
        with pytest.raises(RuntimeError):
            runtime.submit(_dot_request(np.random.default_rng(0)))


class TestOversubscription:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_more_jobs_than_blades(self, rng, policy):
        runtime = BlasRuntime(chassis=1, blades=2, policy=policy)
        jobs = [runtime.submit(_dot_request(rng)) for _ in range(20)]
        metrics = runtime.run()
        assert metrics.jobs_completed == 20
        assert all(j.state is JobState.DONE for j in jobs)
        # Every job landed on a real blade and both blades were used.
        devices = {j.device for j in jobs}
        assert len(devices) == 2
        per_device = sum(d.jobs_completed for d in metrics.devices)
        assert per_device == 20


class TestBackpressure:
    def test_bounded_queue_rejects_overflow(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1, queue_capacity=2)
        jobs = [runtime.submit(_dot_request(rng)) for _ in range(5)]
        metrics = runtime.run()
        assert metrics.jobs_rejected == 3
        assert metrics.jobs_completed == 2
        rejected = [j for j in jobs if j.state is JobState.REJECTED]
        assert len(rejected) == 3
        assert all("queue full" in j.error for j in rejected)

    def test_staggered_arrivals_fit(self, rng):
        # With arrivals spaced wider than the service time, a capacity-1
        # queue never overflows.
        runtime = BlasRuntime(chassis=1, blades=1, queue_capacity=1)
        for i in range(4):
            runtime.submit(_dot_request(rng), at=i * 1.0)
        metrics = runtime.run()
        assert metrics.jobs_rejected == 0
        assert metrics.jobs_completed == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BlasRuntime(chassis=1, blades=1, queue_capacity=0)


class TestDeterminism:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_identical_replay(self, policy):
        def one_run():
            rng = np.random.default_rng(7)
            runtime = BlasRuntime(chassis=1, blades=3, policy=policy)
            for i in range(12):
                runtime.submit(_dot_request(rng, n=64 + 32 * (i % 3)))
            metrics = runtime.run()
            schedule = [(j.job_id, j.device, j.started_at,
                         j.finished_at) for j in runtime.jobs]
            return schedule, metrics.to_json()

        assert one_run() == one_run()

    def test_sjf_tie_breaks_by_job_id(self, rng):
        # Identical shapes → identical predicted cycles; SJF must fall
        # back to submission order, not dict/hash order.
        runtime = BlasRuntime(chassis=1, blades=1, policy="sjf")
        jobs = [runtime.submit(_dot_request(rng, n=128))
                for _ in range(6)]
        runtime.run()
        starts = [j.started_at for j in jobs]
        assert starts == sorted(starts)

    def test_priority_preempts_queue_order(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1, policy="fifo")
        low = runtime.submit(_dot_request(rng, priority=0))
        high = runtime.submit(_dot_request(rng, priority=5))
        runtime.run()
        assert high.started_at < low.started_at

    def test_edf_orders_by_deadline(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1, policy="edf")
        late = runtime.submit(_dot_request(rng, deadline=9.0))
        soon = runtime.submit(_dot_request(rng, deadline=0.5))
        none = runtime.submit(_dot_request(rng))
        runtime.run()
        assert soon.started_at < late.started_at < none.started_at


class TestShortestJobFirst:
    def test_short_jobs_run_before_long(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1, policy="sjf")
        long_job = runtime.submit(_dot_request(rng, n=4096))
        short_job = runtime.submit(_dot_request(rng, n=64))
        runtime.run()
        assert short_job.started_at < long_job.started_at


class TestAreaAware:
    def test_routes_to_resident_blade(self, rng):
        # Alternating dot/gemv jobs on two blades: the area-aware policy
        # should converge to one blade per design and stop paying
        # reconfiguration; FIFO keeps round-robining and pays more.
        def reconfigs(policy):
            rng = np.random.default_rng(11)
            runtime = BlasRuntime(chassis=1, blades=2, policy=policy)
            for i in range(12):
                if i % 2:
                    runtime.submit(BlasRequest(
                        "gemv", (rng.standard_normal((64, 64)),
                                 rng.standard_normal(64))))
                else:
                    runtime.submit(_dot_request(rng))
            metrics = runtime.run()
            return sum(d.reconfigurations for d in metrics.devices)

        assert reconfigs("area") <= reconfigs("fifo")
        assert reconfigs("area") == 2  # one configuration per design

    def test_unplaceable_job_fails(self, rng):
        # A k=30 tree design needs ~68k slices — more than any blade.
        runtime = BlasRuntime(chassis=1, blades=2)
        doomed = runtime.submit(BlasRequest(
            "gemv", (rng.standard_normal((32, 32)),
                     rng.standard_normal(32)), k=30))
        ok = runtime.submit(_dot_request(rng))
        metrics = runtime.run()
        assert doomed.state is JobState.FAILED
        assert "slices" in doomed.error
        assert ok.state is JobState.DONE
        assert metrics.jobs_failed == 1
        assert metrics.jobs_completed == 1

    def test_planning_failure_fails_at_submit(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1)
        job = runtime.submit(BlasRequest(
            "gemm", (rng.standard_normal((8, 8)),
                     rng.standard_normal((8, 8))), k=8, m=8))
        assert job.state is JobState.FAILED
        assert "planning failed" in job.error
