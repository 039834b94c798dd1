"""Property-based tests for the BLAS designs.

For arbitrary shapes, parallelism and data, each simulated design must
(1) agree with numpy numerically, (2) respect its structural claims
(cycle formulas, storage, traffic), and (3) keep strict/fast modes
bit-identical.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import level3
from repro.blas.level1 import DotProductDesign
from repro.blas.level2 import ColumnMajorMvmDesign, TreeMvmDesign
from repro.blas.level3 import MatrixMultiplyDesign
from repro.sparse.csr import CsrMatrix
from repro.sparse.spmxv import SpmxvDesign
from repro.sparse.spmxv_segmented import SegmentedSpmxvDesign


def _array(rng_seed, shape):
    return np.random.default_rng(rng_seed).standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.sampled_from([1, 2, 3, 4, 8]),
       st.integers(0, 2 ** 31))
def test_dot_matches_numpy(n, k, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    run = DotProductDesign(k=k).run(u, v)
    want = float(np.dot(u, v))
    assert abs(run.result - want) <= 1e-9 * max(1.0, abs(want))
    assert run.flops == 2 * n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 48), st.integers(1, 48),
       st.sampled_from([1, 2, 4]), st.integers(0, 2 ** 31))
def test_tree_mvm_matches_numpy(rows, cols, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols))
    x = rng.standard_normal(cols)
    run = TreeMvmDesign(k=k).run(A, x)
    np.testing.assert_allclose(run.y, A @ x, rtol=1e-9, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.sampled_from([1, 2]),
       st.integers(0, 2 ** 31))
def test_column_mvm_matches_numpy(groups_over_alpha, k, seed):
    # choose n so that n/k comfortably exceeds the adder depth
    alpha = 6
    n = k * alpha * groups_over_alpha
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    run = ColumnMajorMvmDesign(k=k, alpha_add=alpha).run(A, x)
    np.testing.assert_allclose(run.y, A @ x, rtol=1e-9, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(8, 2), (8, 4), (16, 4), (16, 8)]),
       st.integers(1, 3), st.integers(0, 2 ** 31))
def test_mm_matches_numpy_and_formulas(mk, blocks, seed):
    m, k = mk
    n = m * blocks
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    design = MatrixMultiplyDesign(k=k, m=m, alpha_add=7,
                                  relax_hazard_check=True)
    run = design.run(A, B)
    np.testing.assert_allclose(run.C, A @ B, rtol=1e-9, atol=1e-9)
    assert run.compute_cycles == n ** 3 // k
    assert run.io_words == 2 * n ** 3 // m + n ** 2
    assert run.storage_words == 2 * m * m


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20),
       st.integers(0, 2 ** 31))
def test_mm_strict_equals_fast(p, q, r, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, q))
    B = rng.standard_normal((q, r))
    design = MatrixMultiplyDesign(k=4, m=8, alpha_add=7)
    fast = design.run(A, B)
    strict = design.run(A, B, strict=True)
    assert fast.C.shape == (p, r)
    assert np.array_equal(fast.C, strict.C)


def _with_specials(rng, shape):
    """Normals with about a quarter of the entries replaced by signed
    zeros and infinities."""
    values = rng.standard_normal(shape)
    special = rng.random(shape) < 0.25
    values[special] = rng.choice([0.0, -0.0, np.inf, -np.inf],
                                 size=int(special.sum()))
    return values


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([(2, 8), (4, 8), (4, 16)]),
       st.integers(1, 4096), st.integers(0, 2 ** 31))
def test_mm_unpadded_equals_padded_cropped(p, q, r, km, block_words,
                                           seed):
    """The array's own padding is the host's: a p×q by q×r run equals
    the run on operands zero-padded to n×n, cropped to p×r, byte for
    byte (NaN and signed zeros included), whatever z-steps each
    einsum of the sweep forms."""
    rng = np.random.default_rng(seed)
    A = _with_specials(rng, (p, q))
    B = _with_specials(rng, (q, r))
    k, m = km
    design = MatrixMultiplyDesign(k=k, m=m)
    n = m * math.ceil(max(p, q, r) / m)
    a_pad = np.zeros((n, n))
    b_pad = np.zeros((n, n))
    a_pad[:p, :q] = A
    b_pad[:q, :r] = B
    with np.errstate(invalid="ignore"):  # inf − inf is NaN here
        with mock.patch.object(level3, "_BLOCK_WORDS", block_words):
            run = design.run(A, B)
        padded = design.run(a_pad, b_pad)
    assert run.C.tobytes() == padded.C[:p, :r].tobytes()
    assert dataclasses.replace(run, C=None) == \
        dataclasses.replace(padded, C=None)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.floats(0.02, 1.0),
       st.sampled_from([1, 2, 4]), st.integers(0, 2 ** 31))
def test_spmxv_variants_agree(n, density, k, seed):
    rng = np.random.default_rng(seed)
    matrix = CsrMatrix.random(n, n, density, rng)
    x = rng.standard_normal(n)
    want = matrix.matvec(x)
    base = SpmxvDesign(k=k).run(matrix, x)
    seg = SegmentedSpmxvDesign(k=k).run(matrix, x)
    np.testing.assert_allclose(base.y, want, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(seg.y, want, rtol=1e-9, atol=1e-9)
    assert seg.total_cycles <= base.total_cycles + 2 * 14 * 14 + n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 31))
def test_csr_roundtrip(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((rows, cols)) < density,
                     rng.standard_normal((rows, cols)), 0.0)
    matrix = CsrMatrix.from_dense(dense)
    np.testing.assert_array_equal(matrix.to_dense(), dense)
    assert matrix.nnz == int(np.count_nonzero(dense))
    x = rng.standard_normal(cols)
    np.testing.assert_allclose(matrix.matvec(x), dense @ x,
                               rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), st.sampled_from([1, 2, 4]),
       st.floats(-10, 10, allow_nan=False), st.integers(0, 2 ** 31))
def test_axpy_scal_match_numpy(n, k, alpha, seed):
    from repro.blas.level1_ext import AxpyDesign, ScalDesign
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    axpy = AxpyDesign(k=k).run(alpha, x, y)
    np.testing.assert_allclose(axpy.y, alpha * x + y, rtol=1e-12,
                               atol=1e-12)
    scal = ScalDesign(k=k).run(alpha, x)
    np.testing.assert_allclose(scal.y, alpha * x, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 100), st.sampled_from([1, 2, 4]),
       st.integers(0, 2 ** 31))
def test_asum_nrm2_match_numpy(n, k, seed):
    from repro.blas.level1_ext import AsumDesign, Nrm2Design
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    asum = AsumDesign(k=k).run(x)
    want = float(np.abs(x).sum())
    assert abs(asum.result - want) <= 1e-9 * max(1.0, want)
    nrm2 = Nrm2Design(k=k).run(x)
    assert abs(nrm2.result - float(np.linalg.norm(x))) <= \
        1e-9 * max(1.0, float(np.linalg.norm(x)))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.integers(0, 2 ** 31))
def test_multi_fpga_equals_single_fpga_numerically(l, seed):
    from repro.blas.multi_fpga import MultiFpgaMatrixMultiply
    rng = np.random.default_rng(seed)
    n = 32
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    single = MultiFpgaMatrixMultiply(l=1, k=4, m=8, b=32).run(A, B)
    multi = MultiFpgaMatrixMultiply(l=l, k=4, m=8, b=32).run(A, B)
    np.testing.assert_allclose(multi.C, single.C, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(multi.C, A @ B, rtol=1e-9, atol=1e-9)
