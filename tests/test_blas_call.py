"""Tests for the unified :class:`repro.blas.api.BlasCall` descriptor.

One descriptor drives both the executing and the planning path, so the
contract under test is *parity*: for every operation and a grid of
shapes, ``BlasCall(...).plan()`` and ``BlasCall(...).execute()`` must
agree on flops, area and design geometry, with gemm predictions exact
(both timing models are closed-form) and streaming predictions within
the calibrated few percent.  Also covered: the :class:`BlasResult`
named fields, the keyword call options, the deduplicated
``design_key`` rule, and the multi-FPGA planning/execution pair.
"""

import inspect
import warnings

import numpy as np
import pytest

from repro.blas.api import (
    BlasCall,
    BlasResult,
    dot,
    gemm,
    gemm_geometry,
    gemm_multi,
    gemv,
    max_gemm_gang,
    spmxv,
)
from repro.sparse.csr import CsrMatrix
from repro.workloads import poisson_2d


def _call(operation, rng, n, **kwargs):
    """A BlasCall with operands for ``operation`` at problem size n."""
    if operation == "dot":
        operands = (rng.standard_normal(n), rng.standard_normal(n))
    elif operation == "gemv":
        operands = (rng.standard_normal((n, n)), rng.standard_normal(n))
    elif operation == "gemm":
        operands = (rng.standard_normal((n, n)),
                    rng.standard_normal((n, n)))
    else:
        matrix = poisson_2d(max(4, int(np.sqrt(n))))
        operands = (matrix, rng.standard_normal(matrix.ncols))
    return BlasCall(operation, operands=operands, **kwargs)


class TestPlanExecuteParity:
    @pytest.mark.parametrize("operation", ["dot", "gemv", "gemm",
                                           "spmxv"])
    @pytest.mark.parametrize("n", [16, 64, 200])
    def test_flops_area_and_key_agree(self, rng, operation, n):
        call = _call(operation, rng, n)
        plan = call.plan()
        result = call.execute()
        assert plan.flops == result.report.flops
        assert plan.area.slices == result.report.area_slices
        assert plan.clock_mhz == result.report.clock_mhz
        assert plan.k == result.report.k

    @pytest.mark.parametrize("operation,rel", [("dot", 0.05),
                                               ("gemv", 0.05),
                                               ("spmxv", 0.10)])
    @pytest.mark.parametrize("n", [64, 128, 300])
    def test_streaming_cycles_close(self, rng, operation, n, rel):
        call = _call(operation, rng, n)
        assert call.plan().predicted_cycles == pytest.approx(
            call.execute().report.total_cycles, rel=rel)

    @pytest.mark.parametrize("n,k,m", [(16, 4, 8), (48, 4, None),
                                       (64, 8, None), (130, 8, None)])
    def test_gemm_cycles_exact(self, rng, n, k, m):
        call = _call("gemm", rng, n, k=k, m=m)
        assert (call.plan().predicted_cycles
                == call.execute().report.total_cycles)

    def test_shape_only_plan_matches_operand_plan(self, rng):
        by_shape = BlasCall("gemm", shape=(48, 48, 48)).plan()
        by_operands = _call("gemm", rng, 48).plan()
        assert by_shape == by_operands


class TestBlasCallValidation:
    def test_unknown_operation(self):
        with pytest.raises(ValueError, match="unknown operation"):
            BlasCall("axpy", shape=(8,))

    def test_needs_operands_or_shape(self):
        with pytest.raises(ValueError, match="operands or a shape"):
            BlasCall("dot")

    def test_bad_blades(self):
        with pytest.raises(ValueError, match="blades"):
            BlasCall("gemm", shape=(64, 64, 64), blades=0)

    @pytest.mark.parametrize("m", [0, -8])
    def test_non_positive_block_size_rejected(self, m):
        operands = (np.ones((16, 16)), np.ones((16, 16)))
        with pytest.raises(ValueError, match="m must be a positive"):
            BlasCall("gemm", operands=operands, m=m).plan()

    def test_gangs_only_for_gemm(self):
        with pytest.raises(ValueError, match="only for gemm"):
            BlasCall("dot", shape=(64,), blades=2)

    def test_wrong_shape_arity(self):
        with pytest.raises(ValueError, match="dimension"):
            BlasCall("gemm", shape=(64, 64)).plan()

    def test_spmxv_needs_matrix(self):
        with pytest.raises(ValueError, match="row structure"):
            BlasCall("spmxv", shape=(64, 64)).plan()

    def test_spmxv_without_nonzeros_rejected(self):
        empty = CsrMatrix.from_dense(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="no nonzeros"):
            BlasCall("spmxv", operands=(empty, None)).plan()

    @pytest.mark.parametrize("sim_mode", ["cycle", "fast"])
    def test_spmxv_without_nonzeros_does_not_execute(self, sim_mode):
        # No nonzero means no datapath cycle: the run's bandwidth would
        # divide by zero.
        empty = CsrMatrix.from_dense(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="no nonzeros"):
            spmxv(empty, np.ones(8), sim_mode=sim_mode)

    def test_cannot_execute_shape_only(self):
        with pytest.raises(ValueError, match="shape-only"):
            BlasCall("gemm", shape=(16, 16, 16)).execute()

    def test_mismatched_gemm_operands(self, rng):
        call = BlasCall("gemm", operands=(rng.standard_normal((4, 5)),
                                          rng.standard_normal((4, 5))))
        with pytest.raises(ValueError, match="gemm needs"):
            call.plan()

    @pytest.mark.parametrize("k", [0, -2])
    @pytest.mark.parametrize("path", ["geometry", "gang width", "plan",
                                      "execute"])
    def test_gemm_k_below_one_rejected(self, deadline, path, k):
        # The default block size doubles from k, which never ends for
        # k <= 0: every gemm path crosses gemm_geometry's check.
        operands = (np.ones((4, 4)), np.ones((4, 4)))
        entry = {
            "geometry": lambda: gemm_geometry(4, 4, 4, k, None),
            "gang width": lambda: max_gemm_gang(4, 4, 4, k=k),
            "plan": BlasCall("gemm", shape=(4, 4, 4), k=k).plan,
            "execute": lambda: gemm(*operands, k=k),
        }[path]
        with deadline(10), pytest.raises(ValueError,
                                         match="k must be >= 1"):
            entry()


class TestBlasResult:
    def test_named_access_does_not_warn(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = gemm(rng.standard_normal((16, 16)),
                          rng.standard_normal((16, 16)), k=4, m=8)
            assert isinstance(result, BlasResult)
            assert result.report.operation == "gemm"
            assert result.value.shape == (16, 16)


class TestDesignKey:
    def test_single_blade_keys(self, rng):
        assert (BlasCall("gemm", shape=(64, 64, 64), k=8).plan().design_key
                == "matrix_multiply(k=8,m=64)")
        matrix = poisson_2d(8)
        assert (BlasCall("spmxv", operands=(matrix, None), k=4)
                .plan().design_key == "spmxv(k=4)")

    def test_gang_key_names_width(self):
        plan = BlasCall("gemm", shape=(256, 256, 256), k=8,
                        blades=2).plan()
        assert plan.blades_required == 2
        assert plan.design_key == "multi_fpga_mm(k=8,m=128,l=2)"
        wider = BlasCall("gemm", shape=(256, 256, 256), k=8, m=64,
                         blades=2).plan()
        assert wider.design_key != plan.design_key


class TestMultiFpgaGemm:
    @pytest.mark.parametrize("n,l", [(256, 2), (130, 2), (512, 4)])
    def test_plan_exact_and_numerics(self, rng, n, l):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        plan = BlasCall("gemm", shape=(n, n, n), blades=l).plan()
        result = gemm_multi(A, B, l=l)
        assert plan.predicted_cycles == result.report.total_cycles
        assert np.allclose(result.value, A @ B)

    def test_gang_beats_single_blade(self, rng):
        single = BlasCall("gemm", shape=(512, 512, 512)).plan()
        gang = BlasCall("gemm", shape=(512, 512, 512), blades=4).plan()
        assert gang.predicted_cycles < single.predicted_cycles / 3

    def test_max_gemm_gang_is_block_count(self):
        assert max_gemm_gang(1024, 1024, 1024) == 8
        assert max_gemm_gang(256, 256, 256) == 2
        assert max_gemm_gang(64, 64, 64) == 1


class TestCallOptions:
    """Call options have one spelling: wrapper keyword arguments,
    passed straight through to the BlasCall fields of the same
    names."""

    OPTIONS = ("clock_mhz", "on_xd1", "sim_mode", "strict",
               "fpgas_per_chassis")

    def test_keywords_match_blas_call_fields(self, rng):
        u, v = rng.standard_normal(128), rng.standard_normal(128)
        direct = BlasCall("dot", operands=(u, v), k=2, clock_mhz=85.0,
                          on_xd1=True, sim_mode="fast").execute()
        wrapped = dot(u, v, clock_mhz=85.0, on_xd1=True,
                      sim_mode="fast")
        assert wrapped.report == direct.report
        assert wrapped.value == direct.value

    def test_same_bundle_reused_across_kernels(self, rng):
        options = {"on_xd1": True, "sim_mode": "fast"}
        A = rng.standard_normal((32, 32))
        x = rng.standard_normal(32)
        for outcome in (dot(x, x, **options),
                        gemv(A, x, **options),
                        gemm(A, A, k=4, m=16, **options)):
            assert outcome.report.clock_mhz < 170.0  # XD1 derate

    def test_defaults_match_blas_call_defaults(self):
        fields = BlasCall.__dataclass_fields__
        for wrapper in (dot, gemv, gemm, gemm_multi, spmxv):
            params = inspect.signature(wrapper).parameters
            for name in self.OPTIONS:
                if name in params:
                    assert params[name].default == \
                        fields[name].default, (wrapper.__name__, name)

    def test_fpgas_per_chassis_charges_crossings(self, rng):
        A = rng.standard_normal((256, 256))
        B = rng.standard_normal((256, 256))
        seated = gemm_multi(A, B, l=2, k=8, m=128,
                            fpgas_per_chassis=1).report
        single = gemm_multi(A, B, l=2, k=8, m=128).report
        assert seated.total_cycles > single.total_cycles


class TestSpmxvBandwidth:
    def test_report_uses_run_model(self, rng):
        from repro.sparse.spmxv import SpmxvDesign

        matrix = poisson_2d(12)
        x = rng.standard_normal(matrix.ncols)
        result = spmxv(matrix, x)
        run = SpmxvDesign(k=4).run(matrix, x)
        assert result.report.memory_bandwidth_gbytes == pytest.approx(
            run.memory_bandwidth_gbytes(result.report.clock_mhz))
        assert result.report.memory_bandwidth_gbytes > 0
