"""Unit tests for the Level-2 matrix-vector multiply designs."""

import numpy as np
import pytest

from repro.blas.level2 import (
    ColumnMajorMvmDesign,
    MvmHazardError,
    TreeMvmDesign,
)


class TestTreeMvmCorrectness:
    @pytest.mark.parametrize("shape", [(1, 1), (8, 8), (16, 64), (64, 16),
                                       (33, 17)])
    def test_matches_numpy(self, rng, shape):
        A = rng.standard_normal(shape)
        x = rng.standard_normal(shape[1])
        run = TreeMvmDesign(k=4).run(A, x)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_any_k(self, rng, k):
        A = rng.standard_normal((24, 40))
        x = rng.standard_normal(40)
        run = TreeMvmDesign(k=k).run(A, x)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        A = rng.standard_normal((4, 8))
        # A longer x too, though run_blocked's column blocks would read
        # only its first ncols elements.
        for x in (rng.standard_normal(5), rng.standard_normal(10)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                TreeMvmDesign().run(A, x)
            with pytest.raises(ValueError, match="dimension mismatch"):
                TreeMvmDesign().run_blocked(A, x, b=4)

    def test_local_storage_limit_enforced(self, rng):
        design = TreeMvmDesign(k=4, bram_words=16)
        with pytest.raises(MemoryError, match="run_blocked"):
            design.run(rng.standard_normal((4, 32)), rng.standard_normal(32))


class TestTreeMvmTiming:
    def test_efficiency_above_95_percent_at_scale(self, rng):
        # Table 3: 97 % of peak for matrix-vector multiply — the
        # reduction flush amortizes across n back-to-back sets.
        A = rng.standard_normal((256, 256))
        run = TreeMvmDesign(k=4).run(A, rng.standard_normal(256))
        assert run.efficiency > 0.95

    def test_mvm_beats_dot_product_efficiency(self, rng):
        from repro.blas.level1 import DotProductDesign
        n = 256
        dot_run = DotProductDesign(k=2).run(rng.standard_normal(n),
                                            rng.standard_normal(n))
        mvm_run = TreeMvmDesign(k=4).run(rng.standard_normal((n, n)),
                                         rng.standard_normal(n))
        assert mvm_run.efficiency > dot_run.efficiency

    def test_words_read_counts_only_matrix(self, rng):
        A = rng.standard_normal((32, 32))
        run = TreeMvmDesign(k=4).run(A, rng.standard_normal(32))
        assert run.words_read == 32 * 32  # x is in local storage

    def test_total_cycles_near_n2_over_k(self, rng):
        n, k = 128, 4
        run = TreeMvmDesign(k=k).run(rng.standard_normal((n, n)),
                                     rng.standard_normal(n))
        assert run.total_cycles == pytest.approx(n * n / k, rel=0.1)

    def test_sustained_mflops_table3_shape(self, rng):
        # k=4 at 170 MHz: peak 1360 MFLOPS, sustained ≈ 1355 (Table 3).
        run = TreeMvmDesign(k=4).run(rng.standard_normal((256, 256)),
                                     rng.standard_normal(256))
        sustained = run.sustained_mflops(170.0)
        assert 1290 < sustained < 1360


class TestTreeMvmBlocked:
    def test_blocked_matches_numpy(self, rng):
        A = rng.standard_normal((48, 96))
        x = rng.standard_normal(96)
        run = TreeMvmDesign(k=4).run_blocked(A, x, b=32)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-11, atol=1e-11)
        assert run.blocks == 3

    def test_blocked_respects_bram_limit(self, rng):
        design = TreeMvmDesign(k=4, bram_words=32)
        A = rng.standard_normal((16, 96))
        x = rng.standard_normal(96)
        run = design.run_blocked(A, x, b=32)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-11, atol=1e-11)

    def test_blocked_extra_traffic_accounted(self, rng):
        A = rng.standard_normal((32, 64))
        x = rng.standard_normal(64)
        flat = TreeMvmDesign(k=4).run(A, x)
        blocked = TreeMvmDesign(k=4).run_blocked(A, x, b=16)
        # partial-y accumulation costs extra reads/writes
        assert blocked.words_read > flat.words_read
        assert blocked.words_written > flat.words_written

    def test_invalid_block(self, rng):
        with pytest.raises(ValueError):
            TreeMvmDesign().run_blocked(rng.standard_normal((4, 4)),
                                        rng.standard_normal(4), b=0)


class TestColumnMajorMvm:
    def test_matches_numpy(self, rng):
        A = rng.standard_normal((64, 64))
        x = rng.standard_normal(64)
        run = ColumnMajorMvmDesign(k=4).run(A, x)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-12, atol=1e-12)

    def test_non_square(self, rng):
        A = rng.standard_normal((64, 20))
        x = rng.standard_normal(20)
        run = ColumnMajorMvmDesign(k=4).run(A, x)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-12, atol=1e-12)

    def test_hazard_raised_when_n_over_k_too_small(self, rng):
        # Section 4.2: hazard-free only when n/k exceeds the adder
        # pipeline depth.  32/4 = 8 < 14 stages → hazard.
        design = ColumnMajorMvmDesign(k=4, alpha_add=14)
        with pytest.raises(MvmHazardError, match="n/k"):
            design.run(rng.standard_normal((32, 32)),
                       rng.standard_normal(32))

    def test_hazard_free_at_boundary(self, rng):
        # n/k = 14 = α works with output forwarding.
        design = ColumnMajorMvmDesign(k=4, alpha_add=14)
        A = rng.standard_normal((56, 56))
        x = rng.standard_normal(56)
        run = design.run(A, x)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-12, atol=1e-12)

    def test_small_alpha_allows_small_n(self, rng):
        design = ColumnMajorMvmDesign(k=4, alpha_add=3)
        A = rng.standard_normal((16, 16))
        x = rng.standard_normal(16)
        run = design.run(A, x)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-12, atol=1e-12)

    def test_efficiency_near_peak(self, rng):
        A = rng.standard_normal((128, 128))
        run = ColumnMajorMvmDesign(k=4).run(A, rng.standard_normal(128))
        assert run.efficiency > 0.95

    def test_x_read_once_per_column(self, rng):
        n, k = 64, 4
        A = rng.standard_normal((n, n))
        run = ColumnMajorMvmDesign(k=k).run(A, rng.standard_normal(n))
        assert run.words_read == n * n + n

    def test_blocked_matches_numpy(self, rng):
        design = ColumnMajorMvmDesign(k=2, alpha_add=8)
        A = rng.standard_normal((64, 24))
        x = rng.standard_normal(24)
        run = design.run_blocked(A, x, b=32)
        np.testing.assert_allclose(run.y, A @ x, rtol=1e-12, atol=1e-12)
        assert run.blocks == 2
