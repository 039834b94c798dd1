"""Unit tests for the Level-3 matrix multiply PE array."""

import dataclasses

import numpy as np
import pytest

from repro.blas.level3 import MatrixMultiplyDesign, MmHazardError


class TestConstruction:
    def test_m_must_divide_k(self):
        with pytest.raises(ValueError, match="multiple of k"):
            MatrixMultiplyDesign(k=3, m=16)

    def test_hazard_guard_m2_over_k(self):
        # m²/k must exceed the adder depth: 4²/4 = 4 < 14.
        with pytest.raises(MmHazardError):
            MatrixMultiplyDesign(k=4, m=4, alpha_add=14)

    def test_k_cannot_exceed_m(self):
        with pytest.raises(Exception):
            MatrixMultiplyDesign(k=32, m=16, alpha_add=2)

    def test_storage_is_2m_squared(self):
        assert MatrixMultiplyDesign(k=8, m=64).storage_words == 2 * 64 * 64

    def test_bram_limit_enforced(self):
        with pytest.raises(MemoryError):
            MatrixMultiplyDesign(k=8, m=128, bram_words=10000)

    def test_paper_configuration_valid(self):
        # Section 5.3: m = 128 on the XC2VP50 (BRAM 522 KB = 66816 words).
        design = MatrixMultiplyDesign(k=8, m=128, bram_words=66816)
        assert design.storage_words == 32768


class TestCorrectness:
    @pytest.mark.parametrize("n,m,k", [(8, 8, 2), (16, 8, 4), (32, 16, 4),
                                       (32, 16, 16), (48, 16, 8)])
    def test_matches_numpy(self, rng, n, m, k):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        run = MatrixMultiplyDesign(k=k, m=m).run(A, B)
        np.testing.assert_allclose(run.C, A @ B, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("p,q,r", [(24, 24, 24), (16, 32, 16)])
    def test_array_pads_operands_itself(self, rng, p, q, r):
        # A 24×24 run at m = 16 and a (16×32)·(32×16) run are the
        # zero-padded 32×32 run, cropped, bit for bit.
        design = MatrixMultiplyDesign(k=4, m=16)
        A = rng.standard_normal((p, q))
        B = rng.standard_normal((q, r))
        a_pad = np.zeros((32, 32))
        b_pad = np.zeros((32, 32))
        a_pad[:p, :q] = A
        b_pad[:q, :r] = B
        run = design.run(A, B)
        padded = design.run(a_pad, b_pad)
        assert run.C.shape == (p, r)
        assert np.array_equal(run.C, padded.C[:p, :r])
        assert dataclasses.replace(run, C=None) == \
            dataclasses.replace(padded, C=None)
        assert run.n == 32 and run.flops == 2 * 32 ** 3

    def test_inner_dimension_mismatch_rejected(self, rng):
        design = MatrixMultiplyDesign(k=4, m=16)
        with pytest.raises(ValueError):
            design.run(rng.standard_normal((16, 32)),
                       rng.standard_normal((16, 16)))

    def test_identity(self, rng):
        design = MatrixMultiplyDesign(k=4, m=16)
        A = rng.standard_normal((16, 16))
        run = design.run(A, np.eye(16))
        np.testing.assert_allclose(run.C, A, rtol=1e-12, atol=1e-12)


class TestStrictReplay:
    def test_strict_matches_fast_bitwise(self, rng):
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        design = MatrixMultiplyDesign(k=4, m=16)
        fast = design.run(A, B)
        strict = design.run(A, B, strict=True)
        assert np.array_equal(fast.C, strict.C)

    def test_strict_cycle_count_close_to_formula(self, rng):
        design = MatrixMultiplyDesign(k=4, m=16)
        A = rng.standard_normal((16, 16))
        strict = design.run(A, A, strict=True)
        fast = design.run(A, A)
        # strict replay includes the (k−1)-element drain skew per block
        skew = (design.k - 1) * (design.m // design.k)
        assert strict.compute_cycles == fast.compute_cycles + skew

    def test_strict_detects_hazard_configuration(self, rng):
        # Force a config where m²/k barely exceeds α, then tighten α at
        # run time by constructing directly: guarded by __init__, so
        # build a legal design and verify the per-cell spacing is m²/k.
        design = MatrixMultiplyDesign(k=4, m=8, alpha_add=15)
        A = rng.standard_normal((8, 8))
        run = design.run(A, A, strict=True)  # 64/4 = 16 > 15: legal
        np.testing.assert_allclose(run.C, A @ A, rtol=1e-11)


class TestTimingClaims:
    def test_effective_latency_n3_over_k(self, rng):
        # Section 5.1: the design's effective latency is n³/k cycles.
        n, m, k = 32, 16, 4
        run = MatrixMultiplyDesign(k=k, m=m).run(
            rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        assert run.compute_cycles == n ** 3 // k

    def test_io_complexity_2n3_over_m_plus_n2(self, rng):
        n, m, k = 32, 8, 4
        run = MatrixMultiplyDesign(k=k, m=m).run(
            rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        assert run.io_words == 2 * n ** 3 // m + n ** 2

    def test_bandwidth_within_3k_over_m(self, rng):
        n, m, k = 32, 16, 4
        design = MatrixMultiplyDesign(k=k, m=m)
        run = design.run(rng.standard_normal((n, n)),
                         rng.standard_normal((n, n)))
        assert run.words_per_cycle() <= design.required_words_per_cycle()

    def test_efficiency_approaches_one_with_n(self, rng):
        design = MatrixMultiplyDesign(k=4, m=8)
        effs = [design.run(rng.standard_normal((n, n)),
                           rng.standard_normal((n, n))).efficiency
                for n in (8, 32, 64)]
        assert effs == sorted(effs)
        assert effs[-1] > 0.9

    def test_peak_is_2k_flops_per_cycle(self):
        design = MatrixMultiplyDesign(k=8, m=16)
        run = design.run(np.eye(16), np.eye(16))
        assert run.peak_flops_per_cycle == 16

    def test_sustained_gflops_matches_paper_formula(self, rng):
        # Section 5.3: 2.5 GFLOPS at k=10, 125 MHz (2k·clock).
        design = MatrixMultiplyDesign(k=10, m=20, alpha_add=14)
        n = 40
        run = design.run(rng.standard_normal((n, n)),
                         rng.standard_normal((n, n)))
        assert run.sustained_gflops(125.0) == pytest.approx(
            2.5 * run.efficiency, rel=1e-6)

    def test_startup_formula(self):
        design = MatrixMultiplyDesign(k=8, m=64)
        # Stage 1: m·(m/k) + (k−1)
        assert design.startup_cycles() == 64 * 8 + 7

    def test_larger_m_needs_less_bandwidth(self):
        d8 = MatrixMultiplyDesign(k=4, m=8)
        d32 = MatrixMultiplyDesign(k=4, m=32)
        assert d32.required_words_per_cycle() < d8.required_words_per_cycle()
