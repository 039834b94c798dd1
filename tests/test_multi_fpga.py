"""Unit tests for the multi-FPGA hierarchical matrix multiply."""

import dataclasses

import numpy as np
import pytest

from repro.blas.multi_fpga import MultiFpgaMatrixMultiply


class TestConstruction:
    def test_b_must_divide_m(self):
        with pytest.raises(ValueError, match="multiple of m"):
            MultiFpgaMatrixMultiply(l=2, k=4, m=7, b=32)

    def test_more_fpgas_than_block_columns_rejected(self):
        with pytest.raises(ValueError, match="idle"):
            MultiFpgaMatrixMultiply(l=8, k=4, m=8, b=32)  # b/m = 4 < l

    def test_uneven_striping_allowed(self, rng):
        # The paper's chassis config (b=2048, m=8, l=6) stripes 256
        # block-columns over 6 FPGAs unevenly; smaller analogue here.
        design = MultiFpgaMatrixMultiply(l=3, k=4, m=8, b=32)
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        run = design.run(A, B)
        np.testing.assert_allclose(run.C, A @ B, rtol=1e-10, atol=1e-10)
        # imbalance bounded by one block-column's worth of MACs
        assert max(run.fpga_block_macs) - min(run.fpga_block_macs) <= (
            (n // 8) ** 2 * (32 // 8 // 3 + 1))

    def test_sram_capacity_check(self):
        with pytest.raises(MemoryError, match="SRAM"):
            MultiFpgaMatrixMultiply(l=1, k=4, m=8, b=64,
                                    sram_words_per_fpga=1000)

    def test_paper_configuration(self):
        # Section 6.3: l=1, k=m=8, b=512 on 2M-word SRAM.
        design = MultiFpgaMatrixMultiply(l=1, k=8, m=8, b=512,
                                         sram_words_per_fpga=2 * 1024 * 1024)
        assert design.sram_words_needed == 2 * 512 * 512


class TestCorrectness:
    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_matches_numpy(self, rng, l):
        design = MultiFpgaMatrixMultiply(l=l, k=4, m=8, b=32)
        n = 64
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        run = design.run(A, B)
        np.testing.assert_allclose(run.C, A @ B, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("p, q, r", [(48, 48, 48), (40, 56, 24)])
    def test_pads_operands_to_a_multiple_of_b(self, rng, p, q, r):
        # The array works at n = b·⌈max(p, q, r)/b⌉ = 64: C is the
        # hand-padded run's, cropped to p×r, and every counter is the
        # padded run's.
        design = MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=32)
        A = rng.standard_normal((p, q))
        B = rng.standard_normal((q, r))
        a_pad = np.zeros((64, 64))
        b_pad = np.zeros((64, 64))
        a_pad[:p, :q] = A
        b_pad[:q, :r] = B
        padded = design.run(a_pad, b_pad)
        run = design.run(A, B)
        assert run.C.shape == (p, r)
        assert run.C.tobytes() == padded.C[:p, :r].tobytes()
        for field in dataclasses.fields(run):
            if field.name != "C":
                assert getattr(run, field.name) == getattr(padded,
                                                           field.name)

    def test_load_balance_even(self, rng):
        design = MultiFpgaMatrixMultiply(l=4, k=4, m=8, b=32)
        n = 64
        run = design.run(rng.standard_normal((n, n)),
                         rng.standard_normal((n, n)))
        assert len(set(run.fpga_block_macs)) == 1  # perfectly balanced


class TestScalingClaims:
    def test_effective_latency_n3_over_kl(self, rng):
        design = MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=32)
        n = 64
        run = design.run(rng.standard_normal((n, n)),
                         rng.standard_normal((n, n)))
        assert run.compute_cycles == n ** 3 // (4 * 2)

    def test_doubling_fpgas_halves_compute(self, rng):
        n = 64
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        c1 = MultiFpgaMatrixMultiply(l=1, k=4, m=8, b=32).run(A, B)
        c2 = MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=32).run(A, B)
        assert c2.compute_cycles == c1.compute_cycles // 2

    def test_dram_io_theta_n3_over_b(self, rng):
        design = MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=32)
        n = 64
        run = design.run(rng.standard_normal((n, n)),
                         rng.standard_normal((n, n)))
        assert run.dram_words == 2 * n ** 3 // 32 + n ** 2

    def test_array_latency_is_k_times_l(self):
        # Section 6.4.1: 48 cycles for one chassis (k=8, l=6);
        # Section 6.4.2: 576 for twelve.
        assert MultiFpgaMatrixMultiply(l=6, k=8, m=8, b=96
                                       ).array_latency_cycles() == 48
        assert MultiFpgaMatrixMultiply(l=72, k=8, m=8, b=1152
                                       ).array_latency_cycles() == 576

    def test_dram_words_per_cycle_formula(self):
        # Section 6.4.1: k=m=8, l=6, b=2048 → 73.1 MB/s at 130 MHz.
        design = MultiFpgaMatrixMultiply(l=6, k=8, m=8, b=2048)
        mbytes = design.dram_words_per_cycle() * 8 * 130e6 / 1e6
        assert mbytes == pytest.approx(73.1, rel=0.01)

    def test_dram_words_per_cycle_12_chassis(self):
        # Section 6.4.2: l=72 → 877.5 MB/s at 130 MHz.
        design = MultiFpgaMatrixMultiply(l=72, k=8, m=8, b=2048)
        mbytes = design.dram_words_per_cycle() * 8 * 130e6 / 1e6
        assert mbytes == pytest.approx(877.5, rel=0.01)

    def test_sram_bandwidth_formula(self):
        # Section 6.3: C′ read+write ≈ 2.1 GB/s plus 32.5 MB/s of C
        # storage traffic at k=m=8, b=512, 130 MHz.
        design = MultiFpgaMatrixMultiply(l=1, k=8, m=8, b=512)
        gbytes = design.sram_words_per_cycle() * 8 * 130e6 / 1e9
        assert gbytes == pytest.approx(2.08 + 0.0325, rel=0.01)

    def test_efficiency_near_one(self, rng):
        design = MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=32)
        n = 96
        run = design.run(rng.standard_normal((n, n)),
                         rng.standard_normal((n, n)))
        assert run.efficiency > 0.95

    def test_gflops_scale_linearly_in_l(self, rng):
        n = 64
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        g1 = MultiFpgaMatrixMultiply(l=1, k=4, m=8, b=32
                                     ).run(A, B).sustained_gflops(130.0)
        g4 = MultiFpgaMatrixMultiply(l=4, k=4, m=8, b=32
                                     ).run(A, B).sustained_gflops(130.0)
        assert g4 / g1 == pytest.approx(4.0, rel=0.05)
