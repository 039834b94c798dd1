"""Tests for the virtual-time executor: numerical fidelity, batching,
reconfiguration accounting and multi-blade scaling."""

import numpy as np
import pytest

from repro.blas import api
from repro.runtime import BlasRuntime, JobState
from repro.runtime.executor import RECONFIG_BITSTREAM_BYTES
from repro.runtime.job import BlasRequest
from repro.sparse.csr import CsrMatrix
from repro.workloads import blas_request_mix, gemm_burst, poisson_2d


@pytest.fixture
def rng():
    return np.random.default_rng(20050512)


class TestNumericalFidelity:
    """Scheduled results must match direct api calls bit for bit."""

    def test_every_operation_matches_direct_call(self, rng):
        u, v = rng.standard_normal(512), rng.standard_normal(512)
        A, x = rng.standard_normal((48, 48)), rng.standard_normal(48)
        G, H = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
        S = poisson_2d(10)
        sx = rng.standard_normal(S.ncols)

        runtime = BlasRuntime(chassis=1, blades=3)
        jobs = [
            runtime.submit(BlasRequest("dot", (u, v))),
            runtime.submit(BlasRequest("gemv", (A, x))),
            runtime.submit(BlasRequest("gemm", (G, H))),
            runtime.submit(BlasRequest("spmxv", (S, sx))),
        ]
        runtime.run()
        assert all(j.state is JobState.DONE for j in jobs)

        assert jobs[0].result == api.dot(u, v).value
        assert np.array_equal(jobs[1].result, api.gemv(A, x).value)
        assert np.array_equal(jobs[2].result, api.gemm(G, H).value)
        assert np.array_equal(jobs[3].result, api.spmxv(S, sx).value)

    def test_batched_gemm_matches_direct_call(self, rng):
        # Batching amortizes timing overhead; it must never change the
        # numerics of any member of the pass.
        operands = [(rng.standard_normal((32, 32)),
                     rng.standard_normal((32, 32))) for _ in range(6)]
        runtime = BlasRuntime(chassis=1, blades=1, batching=True)
        jobs = [runtime.submit(BlasRequest("gemm", ops))
                for ops in operands]
        runtime.run()
        for job, (a, b) in zip(jobs, operands):
            assert np.array_equal(job.result, api.gemm(a, b).value)

    def test_mixed_workload_all_complete(self):
        rng = np.random.default_rng(3)
        runtime = BlasRuntime(chassis=1, blades=6, policy="sjf")
        jobs = [runtime.submit(req, at=at)
                for at, req in blas_request_mix(30, rng)]
        metrics = runtime.run()
        assert metrics.jobs_completed == 30
        assert all(j.state is JobState.DONE for j in jobs)
        assert metrics.sustained_gflops > 0


class TestBatching:
    def test_same_shape_gemms_coalesce(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1, batch_limit=8)
        jobs = [runtime.submit(r) for _, r in gemm_burst(8, 32, rng)]
        metrics = runtime.run()
        assert metrics.batches == 1
        assert len({j.batch_id for j in jobs}) == 1
        # Followers are charged less than their standalone cycle count.
        lead, followers = jobs[0], jobs[1:]
        assert lead.charged_cycles == lead.report.total_cycles
        overhead = api.gemm_fixed_overhead_cycles(lead.plan.k,
                                                  lead.plan.m)
        for job in followers:
            assert job.charged_cycles == \
                job.report.total_cycles - overhead

    def test_batch_limit_respected(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1, batch_limit=3)
        jobs = [runtime.submit(r) for _, r in gemm_burst(7, 32, rng)]
        metrics = runtime.run()
        assert metrics.batches == 3  # 3 + 3 + 1
        sizes = sorted(
            sum(1 for j in jobs if j.batch_id == b)
            for b in {j.batch_id for j in jobs})
        assert sizes == [1, 3, 3]

    def test_different_shapes_do_not_coalesce(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1)
        a = runtime.submit(BlasRequest(
            "gemm", (rng.standard_normal((32, 32)),
                     rng.standard_normal((32, 32)))))
        b = runtime.submit(BlasRequest(
            "gemm", (rng.standard_normal((64, 64)),
                     rng.standard_normal((64, 64)))))
        metrics = runtime.run()
        assert metrics.batches == 2
        assert a.batch_id != b.batch_id

    def test_batching_disabled(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1, batching=False)
        jobs = [runtime.submit(r) for _, r in gemm_burst(4, 32, rng)]
        metrics = runtime.run()
        assert metrics.batches == 4
        assert all(j.charged_cycles == j.report.total_cycles
                   for j in jobs)

    def test_batching_speeds_up_virtual_time(self, rng):
        def makespan(batching):
            rng = np.random.default_rng(5)
            runtime = BlasRuntime(chassis=1, blades=1,
                                  batching=batching)
            for _, req in gemm_burst(8, 32, rng):
                runtime.submit(req)
            return runtime.run().makespan_seconds

        assert makespan(True) < makespan(False)


class TestReconfiguration:
    def test_kernel_switch_charged(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1)
        runtime.submit(BlasRequest("dot", (rng.standard_normal(64),
                                           rng.standard_normal(64))))
        runtime.submit(BlasRequest("gemv", (rng.standard_normal((32, 32)),
                                            rng.standard_normal(32))))
        metrics = runtime.run()
        dev = metrics.devices[0]
        assert dev.reconfigurations == 2
        assert dev.reconfig_seconds == pytest.approx(
            2 * runtime.reconfig_seconds)

    def test_repeat_kernel_not_charged(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1)
        for _ in range(5):
            runtime.submit(BlasRequest("dot", (rng.standard_normal(64),
                                               rng.standard_normal(64))))
        metrics = runtime.run()
        assert metrics.devices[0].reconfigurations == 1

    def test_default_cost_from_bitstream_and_fabric(self):
        runtime = BlasRuntime(chassis=1, blades=1)
        expected = (RECONFIG_BITSTREAM_BYTES
                    / runtime.devices[0].node.dram_path_bandwidth)
        assert runtime.reconfig_seconds == pytest.approx(expected)

    def test_co_resident_designs_share_a_blade(self, rng):
        # dot (9313 slices with shell) + mvm (13772) exceed one blade's
        # usable area, but dot + dot(k=1) designs fit; use custom
        # reconfig cost to make the accounting visible.
        runtime = BlasRuntime(chassis=1, blades=1, reconfig_seconds=1.0)
        runtime.submit(BlasRequest("dot", (rng.standard_normal(64),
                                           rng.standard_normal(64)), k=1))
        runtime.submit(BlasRequest("dot", (rng.standard_normal(64),
                                           rng.standard_normal(64)), k=2))
        runtime.submit(BlasRequest("dot", (rng.standard_normal(64),
                                           rng.standard_normal(64)), k=1))
        metrics = runtime.run()
        dev = metrics.devices[0]
        # Two distinct designs loaded once each; the third job reuses
        # the still-resident k=1 configuration.
        assert dev.reconfigurations == 2
        assert len(dev.resident_designs) == 2


class TestScaling:
    def test_six_blades_at_least_4x_one_blade(self):
        """The ISSUE's acceptance bar: an embarrassingly parallel gemm
        burst must scale ≥ 4× from one blade to six."""
        gflops = {}
        for blades in (1, 6):
            rng = np.random.default_rng(7)
            runtime = BlasRuntime(chassis=1, blades=blades,
                                  policy="area")
            for at, req in gemm_burst(200, 64, rng):
                runtime.submit(req, at=at)
            metrics = runtime.run()
            assert metrics.jobs_completed == 200
            gflops[blades] = metrics.sustained_gflops
        assert gflops[6] >= 4.0 * gflops[1]

    def test_two_chassis_beat_one(self):
        gflops = {}
        for chassis in (1, 2):
            rng = np.random.default_rng(9)
            runtime = BlasRuntime(chassis=chassis, blades=6)
            for at, req in gemm_burst(96, 32, rng):
                runtime.submit(req, at=at)
            gflops[chassis] = runtime.run().sustained_gflops
        assert gflops[2] > gflops[1]


class TestPlanningFailures:
    def test_spmxv_without_nonzeros_fails_only_itself(self, rng):
        runtime = BlasRuntime(chassis=1, blades=2)
        empty = CsrMatrix.from_dense(np.zeros((8, 8)))
        bad = runtime.submit(BlasRequest("spmxv", (empty, np.ones(8))),
                             at=0.0)
        assert bad.state is JobState.FAILED
        assert bad.error == "planning failed: spmxv matrix has no nonzeros"
        good = runtime.submit(BlasRequest(
            "dot", (rng.standard_normal(8), rng.standard_normal(8))),
            at=0.0)
        metrics = runtime.run()
        assert bad.state is JobState.FAILED
        assert good.state is JobState.DONE
        assert metrics.jobs_completed == 1

    def test_column_gemv_with_a_hazard_fails_at_submit(self, rng):
        """⌈16/4⌉ = 4 row groups re-touch a y row before its update
        leaves the 14-stage adder, so no run can succeed: the job fails
        at submit and no blade is charged.  56 rows give 14 groups, the
        depth, whose update is forwarded in time."""
        runtime = BlasRuntime(chassis=1, blades=2)

        def column_gemv(rows):
            return BlasRequest(
                "gemv", (rng.standard_normal((rows, 16)),
                         rng.standard_normal(16)),
                k=4, architecture="column")

        bad = runtime.submit(column_gemv(16), at=0.0)
        assert bad.state is JobState.FAILED
        assert bad.error == (
            "planning failed: row 0 updated at cycle 5 while its previous "
            "update lands at cycle 15; n/k = 4 <= adder depth 14")
        good = runtime.submit(column_gemv(56), at=0.0)
        metrics = runtime.run()
        assert good.state is JobState.DONE
        assert metrics.jobs_failed == 1 and metrics.jobs_completed == 1
        assert sum(device.flops for device in metrics.devices) == \
            2 * 56 * 16

    @pytest.mark.parametrize("max_gang", [1, 4])
    def test_gemm_with_k_zero_fails_planning(self, rng, deadline,
                                             max_gang):
        runtime = BlasRuntime(chassis=1, blades=4, max_gang=max_gang)
        A = rng.standard_normal((64, 64))
        with deadline(10):
            bad = runtime.submit(BlasRequest("gemm", (A, A), k=0),
                                 at=0.0)
        assert bad.state is JobState.FAILED
        assert bad.error == "planning failed: k must be >= 1"


class TestArrivals:
    def test_negative_arrival_rejected(self, rng):
        runtime = BlasRuntime(chassis=1, blades=1)
        with pytest.raises(ValueError):
            runtime.submit(BlasRequest(
                "dot", (rng.standard_normal(8),
                        rng.standard_normal(8))), at=-1.0)

    def test_idle_gap_then_burst(self, rng):
        # The loop must advance over an idle gap and finish both bursts.
        runtime = BlasRuntime(chassis=1, blades=2)
        first = runtime.submit(BlasRequest(
            "dot", (rng.standard_normal(64), rng.standard_normal(64))),
            at=0.0)
        second = runtime.submit(BlasRequest(
            "dot", (rng.standard_normal(64), rng.standard_normal(64))),
            at=10.0)
        metrics = runtime.run()
        assert first.finished_at < 10.0
        assert second.started_at >= 10.0
        assert metrics.jobs_completed == 2
