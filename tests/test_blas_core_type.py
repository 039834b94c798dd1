"""Which result bits depend on the BLAS kernel, not only the request.

The NumPy wheel's OpenBLAS is built ``DYNAMIC_ARCH``: it picks its
compute kernel for the CPU at load time, and ``OPENBLAS_CORETYPE``
overrides the pick.  These tests run one fixed gemm in a subprocess
per core type and compare the result digests.

* The single-blade PE array calls no BLAS, so its bits hold under
  every core type.
* The gang (Section 5.2, fast mode) computes each m-block product with
  ``a_blk @ b_blk``; OpenBLAS's FMA kernels and summation order then
  decide the bits.  That test is a strict xfail until the gang runs an
  exact-order kernel: it starts to pass, and so fails the suite, the
  moment the dependence is gone.

Both run only where the comparison means something: OpenBLAS built
``DYNAMIC_ARCH`` on a CPU with AVX2 and FMA3, so that the Haswell
kernel can actually load.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: One seeded n = 256, m = 16 gemm on ``blades`` blades in fast mode;
#: prints the sha256 of the result's float64 bytes.
SCRIPT = """
import hashlib, sys
import numpy as np
from repro.blas.api import BlasCall
rng = np.random.default_rng(2005)
a = rng.standard_normal((256, 256))
b = rng.standard_normal((256, 256))
value = BlasCall("gemm", operands=(a, b), m=16, blades=int(sys.argv[1]),
                 sim_mode="fast").execute().value
print(hashlib.sha256(
    np.ascontiguousarray(value, dtype="<f8").tobytes()).hexdigest())
"""


def _dynamic_arch_with_fma():
    """OpenBLAS built DYNAMIC_ARCH, and a CPU with AVX2 and FMA3."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.25 has no mode=
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2")
                and __cpu_features__.get("FMA3"))


pytestmark = pytest.mark.skipif(
    not _dynamic_arch_with_fma(),
    reason="needs OpenBLAS built DYNAMIC_ARCH on an AVX2+FMA3 CPU")


def _digest(core_type, blades):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}" if existing
                         else src)
    env.update(OPENBLAS_CORETYPE=core_type, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(blades)],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


def test_single_blade_bits_do_not_depend_on_the_blas_kernel():
    assert _digest("Prescott", 1) == _digest("Haswell", 1)


@pytest.mark.xfail(strict=True, reason=(
    "the gang's block products run through BLAS (FMA, own summation "
    "order) until the exact-order gang kernel lands"))
def test_gang_bits_do_not_depend_on_the_blas_kernel():
    assert _digest("Prescott", 4) == _digest("Haswell", 4)
