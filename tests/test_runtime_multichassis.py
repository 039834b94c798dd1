"""Multi-chassis scheduling: spanning gangs, work stealing, programs.

The contract under test is the tentpole's: gangs may span chassis only
when no single chassis can seat them, the RapidArray crossing cost is
charged identically by the plan and the executor (drift stays 0%), a
drained chassis steals queued work from a saturated home chassis, and
a whole :class:`repro.blas.program.BlasProgram` schedules as one job.
"""

import numpy as np
import pytest

from repro.blas.api import BlasCall
from repro.obs import TraceRecorder
from repro.runtime import BlasRequest, BlasRuntime, JobState
from repro.solvers.cg import cg_iteration_program
from repro.workloads import cg_program_stream, poisson_2d


@pytest.fixture
def rng():
    return np.random.default_rng(20050512)


class TestMultiChassisGangs:
    def _gemm(self, rng, n=512, m=32, max_blades=None):
        return BlasRequest(
            "gemm",
            (rng.standard_normal((n, n)), rng.standard_normal((n, n))),
            k=8, m=m, max_blades=max_blades)

    def test_gang_spans_chassis_when_one_cannot_seat_it(self, rng):
        runtime = BlasRuntime(chassis=2, blades=6, max_gang=12,
                              sim_mode="fast")
        job = runtime.submit(self._gemm(rng, n=512, m=32,
                                        max_blades=12))
        metrics = runtime.run()
        assert job.state is JobState.DONE
        assert job.gang_size == 12
        assert metrics.gangs_multichassis == 1
        assert metrics.inter_chassis_cycles > 0
        chassis = {name.split("/")[1] for name in job.gang_devices}
        assert len(chassis) == 2

    def test_single_chassis_gang_pays_no_crossing(self, rng):
        runtime = BlasRuntime(chassis=2, blades=6, max_gang=4,
                              sim_mode="fast")
        job = runtime.submit(self._gemm(rng, n=512, m=32,
                                        max_blades=4))
        metrics = runtime.run()
        assert job.state is JobState.DONE
        assert metrics.gangs_multichassis == 0
        assert metrics.inter_chassis_cycles == 0

    def test_fallback_without_a_one_blade_design_fails_the_job(
            self, rng):
        # Two single-blade gemms hold two of the three one-blade
        # chassis, so the m = 8 gang falls back to the last blade,
        # where the single-blade array refuses m²/k = 8 ≤ α.  The job
        # fails like an unplannable submit, charges no blade, and the
        # run goes on.
        recorder = TraceRecorder()
        runtime = BlasRuntime(chassis=3, blades=1, max_gang=2,
                              recorder=recorder)
        single = [runtime.submit(self._gemm(rng, n=n, max_blades=1))
                  for n in (128, 96)]
        gang = runtime.submit(self._gemm(rng, n=64, m=8))
        assert gang.plan.blades_required == 2
        metrics = runtime.run()
        assert [j.state for j in single] == [JobState.DONE] * 2
        assert gang.state is JobState.FAILED
        assert gang.error.startswith("planning failed: m²/k = 8")
        assert gang.device is None
        assert runtime.devices[2].metrics.busy_seconds == 0.0
        assert (metrics.jobs_completed, metrics.jobs_failed) == (2, 1)
        failed = [i for i in recorder.instants if i.name == "job.failed"]
        assert [(i.ts, i.args["job"]) for i in failed] == [
            (0.0, gang.job_id)]

    def test_plan_vs_charged_drift_is_zero(self, rng):
        # The acceptance bar: crossing cycles are charged from the
        # same closed form in plan() and execute(), so a spanning
        # gang's prediction is exact, not approximate.
        runtime = BlasRuntime(chassis=12, blades=6, max_gang=16,
                              sim_mode="fast")
        job = runtime.submit(self._gemm(rng, n=512, m=32))
        runtime.run()
        assert job.state is JobState.DONE
        assert job.gang_size == 16
        assert job.charged_cycles == job.plan.predicted_cycles

    def test_full_machine_seventy_two_blade_gang(self, rng):
        runtime = BlasRuntime(chassis=12, blades=6, max_gang=72,
                              sim_mode="fast")
        job = runtime.submit(self._gemm(rng, n=4096, m=32))
        metrics = runtime.run()
        assert job.state is JobState.DONE
        assert job.gang_size == 72
        assert metrics.gangs_multichassis == 1
        plan = BlasCall("gemm", shape=(4096, 4096, 4096), k=8, m=32,
                        blades=72, fpgas_per_chassis=6).plan()
        assert job.charged_cycles == plan.predicted_cycles
        assert metrics.inter_chassis_cycles == \
            plan.inter_chassis_cycles

    def test_metrics_dict_itemizes_crossing(self, rng):
        runtime = BlasRuntime(chassis=2, blades=6, max_gang=12,
                              sim_mode="fast")
        runtime.submit(self._gemm(rng, n=512, m=32, max_blades=12))
        payload = runtime.run().to_dict()
        assert payload["gangs"]["multichassis"] == 1
        assert payload["gangs"]["inter_chassis_cycles"] > 0

    def test_summary_mentions_crossing_when_present(self, rng):
        runtime = BlasRuntime(chassis=2, blades=6, max_gang=12,
                              sim_mode="fast")
        runtime.submit(self._gemm(rng, n=512, m=32, max_blades=12))
        text = runtime.run().summary()
        assert "multichassis" in text
        assert "inter-chassis" in text


class TestWorkStealing:
    def test_drained_chassis_steals_from_saturated_home(self, rng):
        # Chassis 0 has one blade and a queue of pinned jobs; chassis
        # 1's blades are idle.  The overflow must run as steals, not
        # wait serialized behind the home blade.
        runtime = BlasRuntime(chassis=2, blades=1, batching=False)
        jobs = [
            runtime.submit(BlasRequest(
                "dot",
                (rng.standard_normal(4096), rng.standard_normal(4096)),
                home_chassis=0))
            for _ in range(4)
        ]
        metrics = runtime.run()
        assert all(j.state is JobState.DONE for j in jobs)
        assert metrics.work_steals > 0
        stolen = [j for j in jobs
                  if j.device and "/chassis1/" in j.device]
        assert len(stolen) == metrics.work_steals

    def test_no_steal_while_home_has_capacity(self, rng):
        runtime = BlasRuntime(chassis=2, blades=6, batching=False)
        jobs = [
            runtime.submit(BlasRequest(
                "dot",
                (rng.standard_normal(256), rng.standard_normal(256)),
                home_chassis=0))
            for _ in range(4)
        ]
        metrics = runtime.run()
        assert all(j.state is JobState.DONE for j in jobs)
        assert metrics.work_steals == 0
        assert all("/chassis0/" in j.device for j in jobs)

    def test_steals_surface_in_metrics_dict(self, rng):
        runtime = BlasRuntime(chassis=2, blades=1, batching=False)
        for _ in range(3):
            runtime.submit(BlasRequest(
                "dot",
                (rng.standard_normal(2048), rng.standard_normal(2048)),
                home_chassis=0))
        payload = runtime.run().to_dict()
        assert payload["work_steals"] >= 1


class TestProgramJobs:
    def test_cg_program_runs_as_one_job(self, rng):
        matrix = poisson_2d(8)
        program = cg_iteration_program(matrix)
        program.feed(p=rng.standard_normal(matrix.ncols))
        runtime = BlasRuntime(chassis=1, blades=2)
        job = runtime.submit(BlasRequest("program", (program, None)))
        metrics = runtime.run()
        assert job.state is JobState.DONE
        assert metrics.jobs_completed == 1
        # The job's value is the final node's (p·Ap); verify against
        # the program's own numpy reference.
        assert job.result == pytest.approx(program.reference(),
                                           rel=1e-10)

    def test_program_charged_cycles_match_plan(self, rng):
        matrix = poisson_2d(8)
        program = cg_iteration_program(matrix)
        program.feed(p=rng.standard_normal(matrix.ncols))
        runtime = BlasRuntime(chassis=1, blades=1, sim_mode="fast")
        job = runtime.submit(BlasRequest("program", (program, None)))
        runtime.run()
        assert job.state is JobState.DONE
        assert job.plan.predicted_cycles == \
            program.plan().predicted_cycles

    def test_programs_never_batch(self, rng):
        matrix = poisson_2d(6)
        requests = cg_program_stream(3, 6, rng)
        assert len(requests) == 3
        keys = {req.shape_key() for _, req in requests}
        assert len(keys) == 3  # identical structure, distinct keys
        runtime = BlasRuntime(chassis=1, blades=2, batching=True)
        jobs = [runtime.submit(req, at=at) for at, req in requests]
        metrics = runtime.run()
        assert all(j.state is JobState.DONE for j in jobs)
        # Every pass holds exactly one program: no two jobs ever
        # share a batch id.
        batch_ids = [j.batch_id for j in jobs]
        assert len(set(batch_ids)) == len(jobs)
        assert matrix.ncols == 36

    def test_cg_program_stream_deterministic(self):
        first = cg_program_stream(2, 6, np.random.default_rng(7))
        second = cg_program_stream(2, 6, np.random.default_rng(7))
        for (_, a), (_, b) in zip(first, second):
            pa = a.operands[0]
            pb = b.operands[0]
            np.testing.assert_array_equal(
                pa.nodes[0].value, pb.nodes[0].value)
