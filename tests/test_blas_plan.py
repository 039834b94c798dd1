"""Tests for the non-executing planning path (`BlasCall(...).plan()`).

The plans drive scheduling, so what matters is (a) gemm predictions
are *exact* (the Level-3 timing model is closed-form), (b) streaming
designs predict within a few percent, and (c) plans agree with the
executing path on design geometry and failure modes.
"""

import numpy as np
import pytest

from repro.blas import BlasCall, dot, gemm, gemv, spmxv
from repro.blas.level2 import MvmHazardError
from repro.blas.level3 import MmHazardError
from repro.workloads import poisson_2d


@pytest.fixture
def rng():
    return np.random.default_rng(20050512)


class TestPlanDot:
    # Small n exercise the short-stream flush (final sets below the
    # α + 3 saturation point); k = 1 exercises the degenerate
    # single-lane tree the fault plane degrades into.
    @pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (7, 2), (16, 2),
                                     (33, 4), (64, 2), (96, 8),
                                     (100, 1), (2048, 2), (1000, 4),
                                     (4096, 8)])
    def test_prediction_exact(self, rng, n, k):
        plan = BlasCall("dot", shape=(n,), k=k).plan()
        report = dot(rng.standard_normal(n), rng.standard_normal(n),
                     k=k).report
        assert plan.predicted_cycles == report.total_cycles

    def test_flops_and_area(self):
        plan = BlasCall("dot", shape=(512,), k=2).plan()
        assert plan.flops == 1024
        assert plan.area.slices > 0
        assert plan.predicted_seconds > 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            BlasCall("dot", shape=(0,)).plan()


class TestPlanGemv:
    @pytest.mark.parametrize("n,k,arch", [(8, 4, "tree"),
                                          (16, 2, "tree"),
                                          (32, 4, "tree"),
                                          (64, 4, "tree"),
                                          (512, 4, "tree"),
                                          (200, 8, "tree"),
                                          (512, 4, "column")])
    def test_prediction_exact(self, rng, n, k, arch):
        plan = BlasCall("gemv", shape=(n, n), k=k,
                        architecture=arch).plan()
        report = gemv(rng.standard_normal((n, n)),
                      rng.standard_normal(n), k=k,
                      architecture=arch).report
        assert plan.predicted_cycles == report.total_cycles

    def test_rectangular(self, rng):
        plan = BlasCall("gemv", shape=(96, 32), k=4).plan()
        report = gemv(rng.standard_normal((96, 32)),
                      rng.standard_normal(32), k=4).report
        assert plan.predicted_cycles == report.total_cycles
        assert plan.flops == 2 * 96 * 32

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            BlasCall("gemv", shape=(8, 8), architecture="systolic").plan()

    @pytest.mark.parametrize("mode", ["cycle", "fast"])
    @pytest.mark.parametrize("block", [None, 16, 56])
    @pytest.mark.parametrize("rows", [1, 13, 55, 56, 60, 100, 112])
    def test_column_plan_fails_exactly_when_its_run_does(self, rng, rows,
                                                         block, mode):
        """At k = 4 a row block of fewer than 53 rows re-touches a y row
        before the 14-stage adder lands it; 60 rows in blocks of 56
        leave a short last block of 4 that does, 112 rows do not."""
        for cols in (1, 2, 9):
            call = BlasCall("gemv", operands=(
                rng.standard_normal((rows, cols)),
                rng.standard_normal(cols)), k=4, architecture="column",
                block=block, sim_mode=mode)
            outcomes = []
            for step in (call.plan, call.execute):
                try:
                    step()
                    outcomes.append(None)
                except MvmHazardError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (cols, outcomes)
            heights = [rows] if not block else [
                height for height in (min(block, rows), rows % block)
                if height]
            hazard = cols >= 2 and min(heights) < 53
            assert (outcomes[0] is not None) == hazard, (cols, outcomes)


class TestPlanGemm:
    @pytest.mark.parametrize("n,k,m", [(32, 4, 16), (64, 8, None),
                                       (96, 8, None), (48, 4, None)])
    def test_prediction_exact(self, rng, n, k, m):
        plan = BlasCall("gemm", shape=(n, n, n), k=k, m=m).plan()
        report = gemm(rng.standard_normal((n, n)),
                      rng.standard_normal((n, n)), k=k, m=m).report
        assert plan.predicted_cycles == report.total_cycles

    def test_rectangular_exact(self, rng):
        plan = BlasCall("gemm", shape=(24, 40, 56), k=4).plan()
        report = gemm(rng.standard_normal((24, 40)),
                      rng.standard_normal((40, 56)), k=4).report
        assert plan.predicted_cycles == report.total_cycles
        assert plan.flops == 2 * 24 * 40 * 56

    def test_design_key_distinguishes_block_size(self):
        small = BlasCall("gemm", shape=(16, 16, 16), k=8).plan()
        large = BlasCall("gemm", shape=(128, 128, 128), k=8).plan()
        assert small.design_key != large.design_key

    def test_same_failures_as_execution(self):
        # k = m = 8 violates the hazard-free accumulation condition in
        # both the planning and the executing path.
        with pytest.raises(MmHazardError):
            BlasCall("gemm", shape=(8, 8, 8), k=8, m=8).plan()


class TestPlanSpmxv:
    def test_prediction_close(self, rng):
        # The bound is the drift SLO's spmxv threshold, not a local
        # constant: the planner cannot cheaply replay the
        # SingleAdderReduction flush schedule of the final rows (it is
        # data-dependent), so ~10% drift is irreducible — see
        # docs/observability.md.  Keeping one source of truth means a
        # tightened predictor must tighten the SLO spec (and vice
        # versa) or this test fails.
        from repro.obs.slo import SloSpec

        spec = SloSpec.drift_spec()
        bound = next(o.threshold for o in spec.objectives
                     if o.operation == "spmxv")
        matrix = poisson_2d(16)
        x = rng.standard_normal(matrix.ncols)
        plan = BlasCall("spmxv", operands=(matrix, None), k=4).plan()
        report = spmxv(matrix, x, k=4).report
        assert plan.predicted_cycles == pytest.approx(
            report.total_cycles, rel=bound)
        assert plan.flops == 2 * matrix.nnz


class TestSpmxvApi:
    def test_matches_dense_product(self, rng):
        matrix = poisson_2d(12)
        x = rng.standard_normal(matrix.ncols)
        outcome = spmxv(matrix, x)
        assert np.allclose(outcome.value, matrix.to_dense() @ x)
        report = outcome.report
        assert report.operation == "spmxv"
        assert report.total_cycles > 0
        assert report.sustained_mflops > 0
