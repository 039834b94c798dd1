"""Differential harness: ``--sim-mode fast`` vs the cycle substrate.

The fast path's contract is absolute — byte-identical float64 results,
identical charged cycles, identical traffic counters, identical
errors — across the whole BLAS shape grid, under fault storms, and on
the multi-FPGA gang.  These tests *are* the proof; the comparator
lives in :mod:`repro.sim.diff` so the CI ``fast-sim-smoke`` job can
reuse it for the archived comparison report.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.blas import api
from repro.blas.level1 import DotProductDesign
from repro.blas.level2 import (
    ColumnMajorMvmDesign,
    MvmHazardError,
    TreeMvmDesign,
)
from repro.faults import FaultPlan
from repro.runtime import BlasRuntime, JobState
from repro.sim.diff import (
    DEFAULT_GRID,
    compare_runs,
    compare_values,
    differential_report,
    main as diff_main,
    sweep_case,
)
from repro.sparse import CsrMatrix
from repro.sparse.spmxv import SpmxvDesign
from repro.workloads import blas_request_mix

# ----------------------------------------------------------------------
# the shape grid, both modes, byte-identical
# ----------------------------------------------------------------------


def _case_id(case):
    return ",".join(f"{k}={v}" for k, v in case.items())


@pytest.mark.parametrize("case", DEFAULT_GRID, ids=_case_id)
def test_grid_point_byte_identical(case):
    outcome = sweep_case(case)
    assert outcome["identical"], outcome["mismatches"]


def test_report_covers_every_kernel():
    ops = {case["operation"] for case in DEFAULT_GRID}
    assert ops == {"dot", "gemv", "gemm", "spmxv"}
    archs = {case.get("architecture", "tree") for case in DEFAULT_GRID
             if case["operation"] == "gemv"}
    assert archs == {"tree", "column"}
    assert any("block" in case for case in DEFAULT_GRID)
    assert any("blades" in case for case in DEFAULT_GRID)


# ----------------------------------------------------------------------
# charged cycles are the plan's cycles on exact plans
# ----------------------------------------------------------------------
class TestExactPlanCycles:
    """For dot/gemv/gemm the planner's ``predicted_cycles`` is exact;
    both modes must charge exactly that — three-way agreement."""

    CASES = [
        ("dot", 512, {"k": 2}),
        ("gemv", 96, {"k": 4}),
        ("gemm", 64, {"k": 8}),
        ("gemm", 64, {"k": 8, "m": 16, "blades": 4}),
    ]

    @pytest.mark.parametrize("operation,n,kwargs", CASES,
                             ids=lambda v: str(v))
    def test_plan_cycle_fast_agree(self, operation, n, kwargs):
        rng = np.random.default_rng(3)
        if operation == "dot":
            operands = (rng.standard_normal(n), rng.standard_normal(n))
        elif operation == "gemv":
            operands = (rng.standard_normal((n, n)),
                        rng.standard_normal(n))
        else:
            operands = (rng.standard_normal((n, n)),
                        rng.standard_normal((n, n)))
        call = api.BlasCall(operation, operands=operands, **kwargs)
        plan = call.plan()
        reports = {}
        for mode in ("cycle", "fast"):
            reports[mode] = dataclasses.replace(
                call, sim_mode=mode).execute().report
        assert (plan.predicted_cycles
                == reports["cycle"].total_cycles
                == reports["fast"].total_cycles)


# ----------------------------------------------------------------------
# the chaos/fault suite replays identically under both modes
# ----------------------------------------------------------------------
SIZES = {"dot": (128, 256), "gemv": (16, 32), "gemm": (12, 16),
         "spmxv": (6, 8)}


def _storm(sim_mode, seed=7):
    plan = FaultPlan.storm(seed, horizon=0.008, crash_rate=250.0,
                           reconfig_rate=150.0, stall_rate=150.0,
                           corrupt_rate=250.0, crash_duration=5e-4)
    runtime = BlasRuntime(blades=3, fault_plan=plan, max_retries=3,
                          sim_mode=sim_mode)
    for at, request in blas_request_mix(
            18, np.random.default_rng(seed), arrival_rate=2500.0,
            sizes=SIZES):
        runtime.submit(request, at=at)
    metrics = runtime.run()
    return runtime, metrics


class TestChaosParity:
    @pytest.fixture(scope="class")
    def storm_pair(self):
        return {mode: _storm(mode) for mode in ("cycle", "fast")}

    def test_storm_injects_faults(self, storm_pair):
        assert storm_pair["cycle"][1].faults_injected >= 1

    def test_metrics_byte_identical(self, storm_pair):
        assert (storm_pair["cycle"][1].to_json()
                == storm_pair["fast"][1].to_json())

    def test_job_outcomes_identical(self, storm_pair):
        cycle_jobs = storm_pair["cycle"][0].jobs
        fast_jobs = storm_pair["fast"][0].jobs
        assert len(cycle_jobs) == len(fast_jobs)
        done = 0
        for cycle_job, fast_job in zip(cycle_jobs, fast_jobs):
            assert cycle_job.state is fast_job.state
            assert cycle_job.retries == fast_job.retries
            if cycle_job.state is JobState.DONE:
                done += 1
                assert not compare_values(
                    f"job {cycle_job.job_id}",
                    cycle_job.result, fast_job.result)
        assert done  # vacuous otherwise


# ----------------------------------------------------------------------
# both modes fail identically
# ----------------------------------------------------------------------
class TestErrorParity:
    def test_column_major_hazard_message_identical(self):
        # n/k = 8 < alpha = 14: the column-major accumulator read-back
        # hazard.  Both modes must raise the same error, same message.
        rng = np.random.default_rng(0)
        A, x = rng.standard_normal((32, 32)), rng.standard_normal(32)
        messages = {}
        for mode in ("cycle", "fast"):
            with pytest.raises(MvmHazardError) as excinfo:
                api.gemv(A, x, k=4, architecture="column",
                         sim_mode=mode)
            messages[mode] = str(excinfo.value)
        assert messages["cycle"] == messages["fast"]

    def test_blocked_column_hazard_message_identical(self):
        # Hazard surfaces inside a sub-block of run_blocked.
        rng = np.random.default_rng(1)
        A, x = rng.standard_normal((200, 200)), rng.standard_normal(200)
        messages = {}
        for mode in ("cycle", "fast"):
            with pytest.raises(MvmHazardError) as excinfo:
                api.gemv(A, x, k=4, architecture="column", block=64,
                         sim_mode=mode)
            messages[mode] = str(excinfo.value)
        assert messages["cycle"] == messages["fast"]

    @pytest.mark.parametrize("mode", ["cycle", "fast"])
    @pytest.mark.parametrize("shape", [(0, 8), (3, 0)])
    @pytest.mark.parametrize("design", [TreeMvmDesign(k=4),
                                        ColumnMajorMvmDesign(k=2)],
                             ids=["tree", "column"])
    def test_zero_size_matrix_rejected(self, design, shape, mode):
        # BlasCall rejects a zero dimension before any design runs; a
        # direct design call must fail the same way in both modes.
        with pytest.raises(ValueError,
                           match="matrix dimensions must be positive"):
            design.run(np.zeros(shape), np.zeros(shape[1]), sim_mode=mode)

    def test_bad_sim_mode_rejected_everywhere(self):
        from repro.serve.server import ServeConfig

        u = np.ones(8)
        A = np.ones((8, 8))
        for mode in ("warp", "auto"):
            calls = [
                lambda: api.BlasCall("dot", shape=(8,), sim_mode=mode),
                lambda: BlasRuntime(sim_mode=mode),
                lambda: ServeConfig(sim_mode=mode),
                lambda: DotProductDesign(k=2).run(u, u, sim_mode=mode),
                lambda: DotProductDesign(k=2).stream(u, (8,),
                                                     sim_mode=mode),
                lambda: SpmxvDesign(k=2).run(CsrMatrix.from_dense(A), u,
                                             sim_mode=mode),
            ]
            for design in (TreeMvmDesign(k=2), ColumnMajorMvmDesign(k=2)):
                calls.append(lambda d=design: d.run(A, u, sim_mode=mode))
                calls.append(lambda d=design: d.run_blocked(
                    A, u, 4, sim_mode=mode))
            for call in calls:
                with pytest.raises(ValueError, match="unknown sim mode"):
                    call()


# ----------------------------------------------------------------------
# comparator self-tests: the harness must be able to fail
# ----------------------------------------------------------------------
class TestComparator:
    def test_detects_value_drift(self):
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal(64), rng.standard_normal(64)
        from repro.blas.level1 import DotProductDesign

        run = DotProductDesign(k=2).run(u, v)
        drifted = dataclasses.replace(run, result=run.result + 1e-16
                                      if run.result + 1e-16 != run.result
                                      else run.result * (1 + 1e-15))
        assert compare_runs(run, drifted)

    def test_detects_cycle_drift(self):
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal(64), rng.standard_normal(64)
        from repro.blas.level1 import DotProductDesign

        run = DotProductDesign(k=2).run(u, v)
        drifted = dataclasses.replace(run,
                                      total_cycles=run.total_cycles + 1)
        assert any("total_cycles" in m for m in
                   compare_runs(run, drifted))

    def test_detects_signed_zero(self):
        assert compare_values("x", 0.0, -0.0)
        assert not compare_values("x", 0.0, 0.0)

    def test_array_comparison_is_bytewise(self):
        a = np.array([1.0, 2.0])
        assert not compare_values("a", a, a.copy())
        assert compare_values("a", a, a.astype(np.float32))
        assert compare_values("a", a, np.array([1.0, 2.0 + 1e-12]))

    def test_report_and_cli(self, tmp_path):
        out = tmp_path / "report.json"
        small_grid = [{"operation": "dot", "n": 64, "k": 2}]
        report = differential_report(small_grid)
        assert report["ok"] and report["total"] == 1
        code = diff_main(["--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"]
        assert payload["total"] == len(DEFAULT_GRID)

