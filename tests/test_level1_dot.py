"""Unit tests for the Level-1 dot product design."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.level1 import DotProductDesign, _tree_fold, fold_columns

#: Finite doubles small enough that nine of them cannot overflow a sum.
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
              allow_infinity=False))
_TABLES = st.integers(1, 9).flatmap(lambda cols: st.lists(
    st.lists(_FINITE, min_size=cols, max_size=cols),
    min_size=1, max_size=20))


class TestTreeFold:
    def test_single(self):
        assert _tree_fold([5.0]) == 5.0

    def test_pairwise_association(self):
        # ((1+2)+(3+4)) — tree order, not sequential
        assert _tree_fold([1.0, 2.0, 3.0, 4.0]) == 10.0

    def test_odd_width(self):
        assert _tree_fold([1.0, 2.0, 3.0]) == 6.0

    @settings(max_examples=200, deadline=None)
    @given(_TABLES)
    def test_fold_columns_is_tree_fold_per_row(self, rows):
        folded = fold_columns(np.array(rows, dtype=np.float64))
        assert len(folded) == len(rows)
        for row, value in zip(rows, folded):
            assert struct.pack("<d", value) \
                == struct.pack("<d", _tree_fold(list(row)))


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 257])
    def test_matches_numpy(self, rng, n):
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        run = DotProductDesign(k=2).run(u, v)
        assert run.result == pytest.approx(float(np.dot(u, v)), rel=1e-12,
                                           abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_any_k(self, rng, k):
        u, v = rng.standard_normal(100), rng.standard_normal(100)
        run = DotProductDesign(k=k).run(u, v)
        assert run.result == pytest.approx(float(np.dot(u, v)), rel=1e-12,
                                           abs=1e-12)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            DotProductDesign().run(rng.standard_normal(4),
                                   rng.standard_normal(5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DotProductDesign().run(np.array([]), np.array([]))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            DotProductDesign(k=0)


class TestTiming:
    def test_flops_counted(self, rng):
        run = DotProductDesign(k=2).run(rng.standard_normal(64),
                                        rng.standard_normal(64))
        assert run.flops == 128

    def test_words_read_is_2n_for_divisible_n(self, rng):
        run = DotProductDesign(k=2).run(rng.standard_normal(64),
                                        rng.standard_normal(64))
        assert run.words_read == 2 * 64

    def test_input_cycles_is_n_over_k(self, rng):
        run = DotProductDesign(k=4).run(rng.standard_normal(64),
                                        rng.standard_normal(64))
        assert run.input_cycles == 16

    def test_io_bound_peak_is_2k(self):
        run = DotProductDesign(k=2).run(np.ones(64), np.ones(64))
        assert run.peak_flops_per_cycle == 4

    def test_efficiency_grows_with_n(self, rng):
        effs = []
        for n in (128, 512, 2048):
            u, v = rng.standard_normal(n), rng.standard_normal(n)
            effs.append(DotProductDesign(k=2).run(u, v).efficiency)
        assert effs == sorted(effs)
        assert effs[-1] > 0.85  # paper's Table 3 ballpark (80 %)

    def test_reduction_tail_dominates_small_n(self, rng):
        run = DotProductDesign(k=2).run(rng.standard_normal(8),
                                        rng.standard_normal(8))
        # Total latency is mostly pipeline + reduction flush here.
        assert run.total_cycles > 5 * run.input_cycles

    def test_bandwidth_throttle_slows_input(self, rng):
        u, v = rng.standard_normal(256), rng.standard_normal(256)
        fast = DotProductDesign(k=2).run(u, v)
        slow = DotProductDesign(k=2, words_per_cycle=1.0).run(u, v)
        # Input phase slows 4×; the fixed reduction tail dilutes the
        # overall ratio.
        assert slow.total_cycles > 2.5 * fast.total_cycles
        assert slow.result == fast.result

    def test_sustained_mflops_scales_with_clock(self, rng):
        run = DotProductDesign(k=2).run(rng.standard_normal(128),
                                        rng.standard_normal(128))
        assert run.sustained_mflops(340) == pytest.approx(
            2 * run.sustained_mflops(170))

    def test_memory_bandwidth_at_most_2k_words(self, rng):
        run = DotProductDesign(k=2).run(rng.standard_normal(512),
                                        rng.standard_normal(512))
        # 2k words/cycle × 8 B at 170 MHz = 5.44 GB/s ceiling.
        assert run.memory_bandwidth_gbytes(170.0) <= 5.44 + 1e-9
