"""Differential harness: ``--sim-mode fast`` vs the cycle substrate.

The fast path's contract is absolute — byte-identical float64 results,
identical charged cycles, identical traffic counters, identical
errors — across the whole BLAS shape grid, under fault storms, and on
the multi-FPGA gang.  These tests *are* the proof; the comparator
lives in :mod:`repro.sim.diff` so the CI ``fast-sim-smoke`` job can
reuse it for the archived comparison report.

The ≥10x wall-clock gate on the n=1024 gang benchmark runs only when
``FAST_SIM_GATE=1`` (it steps ~11 s of cycle simulation); the CI job
sets it.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro.blas import api, multi_fpga
from repro.blas.level1 import DotProductDesign
from repro.blas.level2 import (
    ColumnMajorMvmDesign,
    MvmHazardError,
    TreeMvmDesign,
)
from repro.blas.multi_fpga import (MultiFpgaMatrixMultiply, _band_rows,
                                   _block_products,
                                   _slab_matmul_consistent)
from repro.faults import FaultPlan
from repro.runtime import BlasRuntime, JobState
from repro.sim import fast as fastsim
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
# the fast gang's row bands and its self-check
# ----------------------------------------------------------------------
#: n = 2b, b = 384, m = 32: two b-blocks per side, and fast mode folds
#: each C′ in two row bands (``_band_rows(384, 32) == 192``).
BANDED = {"l": 6, "k": 8, "m": 32, "b": 384}


def _banded_operands(seed):
    rng = np.random.default_rng(seed)
    n = 2 * BANDED["b"]
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


class TestGangBands:
    def test_banded_fast_run_equals_cycle_run(self):
        # Real-valued operands: the band loop, the i/j/q loops and the
        # closed-form dram/link/MAC counters against the stepped path.
        design = MultiFpgaMatrixMultiply(**BANDED)
        assert _band_rows(design.b, design.m) < design.b
        assert _slab_matmul_consistent(design.b, design.m), \
            "gang fast path declined eligibility"
        A, B = _banded_operands(384)
        mismatches = compare_runs(design.run(A, B),
                                  design.run(A, B, sim_mode="fast"))
        assert not mismatches, mismatches

    def test_failed_self_check_steps_the_block_products(self,
                                                         monkeypatch):
        def fold(*args):
            raise AssertionError("fast fold ran after a failed check")

        monkeypatch.setattr(multi_fpga, "_slab_matmul_consistent",
                            lambda b, m: False)
        monkeypatch.setattr(multi_fpga, "_fold_row_bands", fold)
        design = MultiFpgaMatrixMultiply(**BANDED)
        A, B = _banded_operands(5)
        mismatches = compare_runs(design.run(A, B),
                                  design.run(A, B, sim_mode="fast"))
        assert not mismatches, mismatches

    def test_batched_reference_equals_2d_block_products(self):
        b, m = BANDED["b"], BANDED["m"]
        rows = _band_rows(b, m)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((rows, m))
        w = rng.standard_normal((m, b))
        expected = np.empty((rows, b))
        for g in range(0, rows, m):
            for h in range(0, b, m):
                expected[g:g + m, h:h + m] = a[g:g + m] @ w[:, h:h + m]
        assert np.array_equal(_block_products(a, w, m), expected)


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
                lambda: MultiFpgaMatrixMultiply(l=2, k=2, m=2, b=8).run(
                    A, A, sim_mode=mode),
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


# ----------------------------------------------------------------------
# the wall-clock gate (CI fast-sim-smoke sets FAST_SIM_GATE=1)
# ----------------------------------------------------------------------
@pytest.mark.skipif(os.environ.get("FAST_SIM_GATE") != "1",
                    reason="set FAST_SIM_GATE=1 to run the ≥10x "
                           "gang wall-clock gate (~15 s)")
def test_gang_benchmark_speedup_gate():
    """The headline claim: the n=1024 gang benchmark runs ≥10x faster
    in fast mode — while staying field-for-field identical."""
    n = 1024
    rng = np.random.default_rng(20050512)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    design = MultiFpgaMatrixMultiply(l=6, k=8, m=8, b=n)

    start = time.perf_counter()
    cycle_run = design.run(A, B)
    cycle_s = time.perf_counter() - start

    start = time.perf_counter()
    fast_run = fastsim.fast_multi_fpga_mm(design, A, B)
    fast_s = time.perf_counter() - start

    assert _slab_matmul_consistent(design.b, design.m), \
        "gang fast path declined eligibility"
    mismatches = compare_runs(cycle_run, fast_run)
    assert not mismatches, mismatches
    speedup = cycle_s / fast_s
    assert speedup >= 10.0, (
        f"fast mode only {speedup:.1f}x faster "
        f"({cycle_s:.2f}s vs {fast_s:.2f}s)")
