"""Section 6.3 — CPU dgemm comparison.

The paper compares its 2.06 GFLOPS FPGA design against optimized CPU
libraries: 4.1 GFLOPS (Opteron/ACML), 5.5 (Xeon/MKL), 5.0 (P4/MKL).
The modern stand-in for "vendor math library" is numpy's BLAS; this
bench measures actual dgemm GFLOPS on the host and reproduces the
paper's qualitative point: a 2005 FPGA sits within ~2-3× of a 2005
CPU on dense matrix multiply, while winning on I/O-bound kernels per
byte of bandwidth.
"""

import time

import numpy as np

from repro.device.node import OPTERON_2_6, PENTIUM4_3_0, XEON_3_2
from repro.perf.report import Comparison, render_table

FPGA_GFLOPS = 2.06  # Table 4 (reproduced by test_table4_xd1.py)


def test_host_dgemm_vs_catalog(benchmark, rng):
    n = 512
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))

    result = benchmark(np.dot, A, B)
    assert result.shape == (n, n)

    # Convert the benchmark's own timing into GFLOPS; under
    # --benchmark-disable it keeps no stats, so time one dgemm here.
    if benchmark.stats is not None:
        seconds = benchmark.stats.stats.mean
    else:
        start = time.perf_counter()
        np.dot(A, B)
        seconds = time.perf_counter() - start
    host_gflops = 2 * n ** 3 / seconds / 1e9

    rows = [
        Comparison("Opteron 2.6 GHz (ACML)", 4.1,
                   OPTERON_2_6.dgemm_gflops, "GFLOPS"),
        Comparison("Xeon 3.2 GHz (MKL)", 5.5, XEON_3_2.dgemm_gflops,
                   "GFLOPS"),
        Comparison("Pentium 4 3.0 GHz (MKL)", 5.0,
                   PENTIUM4_3_0.dgemm_gflops, "GFLOPS"),
    ]
    print()
    print(render_table("Section 6.3: CPU dgemm catalog", rows))
    print(f"\nThis host's numpy dgemm (n={n}): {host_gflops:.2f} GFLOPS")
    print(f"Paper-era FPGA design:            {FPGA_GFLOPS:.2f} GFLOPS")
    print(f"Paper-era CPU ratio (FPGA/Opteron): "
          f"{FPGA_GFLOPS / OPTERON_2_6.dgemm_gflops:.2f}")

    # Shape: the 2005 FPGA design is the same order of magnitude as the
    # 2005 CPUs (within 2-3×), per the paper's discussion.
    assert 0.3 < FPGA_GFLOPS / OPTERON_2_6.dgemm_gflops < 1.0
    assert host_gflops > 0
