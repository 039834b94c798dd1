"""The compiled exact-order gemm against its NumPy reference.

``repro.blas.exact_gemm`` sums each cell of the single-blade array's
C from +0.0 in z order, as :func:`repro.blas.level3.sweep` does; its
bytes must equal the sweep's on any shape, with signed zeros, ±inf and
NaN (a NaN cell is compared as NaN: distinct input NaN payloads may
propagate differently), in a native and in a baseline build.  The
build is cached per source, flags and CPU, and without a compiler the
array runs the sweep with the same bits.  Tests that need the kernel
skip when no C compiler is found; CI asserts that one is.
"""

import tempfile
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import exact_gemm, level3
from repro.blas.level3 import MatrixMultiplyDesign
from tests import test_blas_properties, test_kernel_golden

needs_compiler = pytest.mark.skipif(exact_gemm.compiler() is None,
                                    reason="no C compiler found")

#: A portable build: no -march, so SSE2 only on x86-64.
BASELINE_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: (p, q, r) with no product (q = 0) or an empty C.
EMPTY = ((6, 0, 18), (0, 9, 5), (7, 9, 0))
#: (p, q, r) across the 4×16 tile edges.
GRID = ((1, 1, 1), (3, 5, 7), (4, 16, 16), (5, 17, 33), (13, 20, 7),
        (40, 64, 31), (64, 64, 64), (70, 3, 70), (97, 70, 100),
        (128, 96, 128)) + EMPTY

#: The single-blade golden cases the compiled kernel computes (the
#: ``strict=True`` ones replay every MAC instead).
SINGLE_BLADE = sorted(
    case for case, (op, _, _, extra) in test_kernel_golden.CASES.items()
    if op in ("gemm", "gemm-short") and not extra[-1])


def _operands(rng, p, q, r, nan=True):
    """Normals with about a quarter replaced by signed zeros, ±inf and,
    when ``nan``, NaN."""
    specials = [0.0, -0.0, np.inf, -np.inf] + ([np.nan] if nan else [])
    pair = []
    for shape in ((p, q), (q, r)):
        values = rng.standard_normal(shape)
        special = rng.random(shape) < 0.25
        values[special] = rng.choice(specials, size=int(special.sum()))
        pair.append(values)
    return pair


def _assert_same_bits(got, want):
    """Equal bytes in every non-NaN cell, and NaN in the same cells."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after the test."""
    exact_gemm.kernel.cache_clear()
    yield
    exact_gemm.kernel.cache_clear()


@pytest.fixture
def no_compiler(fresh_kernel, monkeypatch, tmp_path):
    """The host without a C compiler: an empty cache and nothing found
    by the compiler lookup."""
    monkeypatch.setattr(exact_gemm, "compiler", lambda: None)
    monkeypatch.setattr(exact_gemm, "_cache_dir", lambda: tmp_path)


@pytest.fixture(params=["kernel", "numpy"])
def path(request):
    """Each way the array computes C: the compiled kernel (skipped
    without a compiler) and the NumPy sweep it falls back to."""
    if request.param == "numpy":
        request.getfixturevalue("no_compiler")
        assert exact_gemm.kernel() is None
    elif exact_gemm.compiler() is None:
        pytest.skip("no C compiler found")
    else:
        assert exact_gemm.kernel() is not None
    return request.param


@needs_compiler
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(1, 70), st.integers(1, 70),
       st.integers(0, 2 ** 31))
def test_kernel_bits_equal_the_sweep(p, q, r, seed):
    A, B = _operands(np.random.default_rng(seed), p, q, r)
    gemm = exact_gemm.kernel()
    with np.errstate(invalid="ignore"):  # inf − inf and 0·inf are NaN
        _assert_same_bits(gemm(A, B), level3.sweep(A, B))


@needs_compiler
def test_native_and_baseline_builds_give_the_same_bytes(tmp_path):
    builds = []
    for name, flags in (("native", exact_gemm.NATIVE_FLAGS),
                        ("baseline", BASELINE_FLAGS)):
        (tmp_path / name).mkdir()
        builds.append(exact_gemm.load(tmp_path / name, flags))
    native, baseline = builds
    assert native is not None and baseline is not None
    rng = np.random.default_rng(2005)
    for p, q, r in GRID:
        A, B = _operands(rng, p, q, r, nan=False)
        with np.errstate(invalid="ignore"):
            want = level3.sweep(A, B)
            assert native(A, B).tobytes() == want.tobytes()
            assert baseline(A, B).tobytes() == want.tobytes()


@needs_compiler
def test_fresh_load_reuses_the_cached_file(tmp_path, monkeypatch):
    assert exact_gemm.load(tmp_path) is not None
    built = sorted(tmp_path.iterdir())
    assert [path.suffix for path in built] == [".so"]  # no partial file

    def no_compiler():
        raise AssertionError("a cached kernel ran the compiler")

    monkeypatch.setattr(exact_gemm, "compiler", no_compiler)
    gemm = exact_gemm.load(tmp_path)
    assert gemm is not None
    assert sorted(tmp_path.iterdir()) == built
    A, B = _operands(np.random.default_rng(7), 9, 21, 17, nan=False)
    with np.errstate(invalid="ignore"):
        assert gemm(A, B).tobytes() == level3.sweep(A, B).tobytes()


@needs_compiler
def test_another_flag_set_gets_its_own_file(tmp_path):
    exact_gemm.load(tmp_path)
    exact_gemm.load(tmp_path, BASELINE_FLAGS)
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_directory_is_private_and_per_user(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = exact_gemm._cache_dir()
    assert path == tmp_path / "cache" / "repro"
    assert path.stat().st_mode & 0o777 == 0o700


@needs_compiler
@pytest.mark.parametrize("home", ["file", "none"])
def test_no_cache_directory_builds_in_a_removed_temporary_directory(
        fresh_kernel, monkeypatch, tmp_path, home):
    """The cache directory cannot be created (its parent is a file) or
    the user has no home directory to put it in."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    builds = tmp_path / "tmp"
    builds.mkdir()
    if home == "file":
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    else:
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(exact_gemm.Path, "home", no_home)
    monkeypatch.setattr(tempfile, "tempdir", str(builds))
    assert exact_gemm.kernel() is not None
    assert list(builds.iterdir()) == []


def test_failed_build_falls_back_to_the_sweep(no_compiler, monkeypatch):
    monkeypatch.setattr(exact_gemm, "compiler", lambda: "false")
    assert exact_gemm.kernel() is None
    A, B = _operands(np.random.default_rng(3), 6, 5, 4, nan=False)
    with np.errstate(invalid="ignore"):
        C = MatrixMultiplyDesign(k=2, m=8).run(A, B).C
        assert C.tobytes() == level3.sweep(A, B).tobytes()


@needs_compiler
def test_without_a_compiler_run_takes_the_numpy_path(fresh_kernel,
                                                      monkeypatch,
                                                      tmp_path):
    A, B = _operands(np.random.default_rng(11), 37, 29, 45, nan=False)
    design = MatrixMultiplyDesign(k=4, m=16)
    with np.errstate(invalid="ignore"):
        compiled = design.run(A, B)
        monkeypatch.setattr(exact_gemm, "compiler", lambda: None)
        monkeypatch.setattr(exact_gemm, "_cache_dir", lambda: tmp_path)
        exact_gemm.kernel.cache_clear()
        calls = []
        sweep = level3.sweep
        monkeypatch.setattr(level3, "sweep",
                            lambda *args: calls.append(1) or sweep(*args))
        fallback = design.run(A, B)
    assert calls == [1]
    assert fallback.C.tobytes() == compiled.C.tobytes()
    assert fallback.total_cycles == compiled.total_cycles


@pytest.mark.parametrize("case", SINGLE_BLADE)
def test_single_blade_golden_on_both_paths(path, case):
    run = test_kernel_golden._run(case, "fast")
    assert test_kernel_golden._digest(run) == test_kernel_golden.GOLDEN[case]


def test_unpadded_equals_padded_cropped_on_both_paths(path):
    test_blas_properties.test_mm_unpadded_equals_padded_cropped()


def test_run_takes_strided_and_integer_operands(path):
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((33, 21)), rng.standard_normal((21, 18))
    design = MatrixMultiplyDesign(k=4, m=16)
    want = level3.sweep(A, B)
    # Fortran-ordered and column-strided views of the same values.
    strided = np.zeros((21, 36))
    strided[:, ::2] = B
    run = design.run(np.asfortranarray(A), strided[:, ::2])
    assert run.C.tobytes() == want.tobytes()
    Ai, Bi = rng.integers(-9, 9, (13, 30)), rng.integers(-9, 9, (30, 19))
    run = design.run(Ai, Bi)
    assert run.C.dtype == np.float64
    assert run.C.tobytes() == level3.sweep(
        Ai.astype(np.float64), Bi.astype(np.float64)).tobytes()


@pytest.mark.parametrize("p, q, r", EMPTY)
def test_empty_dimensions(path, p, q, r):
    C = MatrixMultiplyDesign(k=2, m=8).run(np.ones((p, q)),
                                           np.ones((q, r))).C
    assert C.shape == (p, r)
    assert C.tobytes() == np.zeros((p, r)).tobytes()  # +0.0, not −0.0


@needs_compiler
def test_kernel_rejects_mismatched_shapes():
    gemm = exact_gemm.kernel()
    with pytest.raises(ValueError, match="p×q and q×r"):
        gemm(np.ones((3, 4)), np.ones((5, 2)))
    with pytest.raises(ValueError, match="p×q and q×r"):
        gemm(np.ones(4), np.ones((4, 2)))


def test_source_ships_with_the_package():
    text = resources.files("repro.blas").joinpath(
        exact_gemm.SOURCE).read_text()
    assert "void gemm(" in text
    assert exact_gemm.source() == text.encode()
