"""Every run record reports the rates of :class:`repro.blas.run.KernelRun`.

Each rate has one definition: the records inherit them, and only the
multi-FPGA gang overrides any (its 2kl peak, its DRAM words and their
bandwidth).  Every rate must work on every record.
"""

import math

import numpy as np
import pytest

from repro.blas.level1 import DotProductDesign, DotProductRun
from repro.blas.level1_ext import AxpyDesign, VectorRun
from repro.blas.level2 import ColumnMajorMvmDesign, MvmRun
from repro.blas.level3 import MatrixMultiplyDesign, MatrixMultiplyRun
from repro.blas.multi_fpga import MultiFpgaMatrixMultiply, MultiFpgaRun
from repro.blas.run import KernelRun
from repro.sparse.spmxv import SpmxvDesign, SpmxvRun
from repro.workloads import poisson_2d

RATES = sorted(name for name in vars(KernelRun) if not name.startswith("_"))


def _runs(rng):
    A = rng.standard_normal((64, 64))
    matrix = poisson_2d(8)
    return [
        DotProductDesign(k=2).run(A[0], A[1]),
        ColumnMajorMvmDesign(k=4).run(A, A[0]),
        SpmxvDesign(k=4).run(matrix, rng.standard_normal(matrix.ncols)),
        MatrixMultiplyDesign(k=4, m=16).run(A, A),
        MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=32).run(A, A),
        AxpyDesign(k=2).run(0.5, A[0], A[1]),
    ]


def test_every_rate_works_on_every_record(rng):
    for run in _runs(rng):
        for name in RATES:
            value = getattr(run, name)
            if callable(value):  # a method of the clock, or of nothing
                value = (value() if name == "words_per_cycle"
                         else value(170.0))
            assert math.isfinite(value) and value > 0, (run, name)


@pytest.mark.parametrize("record, overrides", [
    (DotProductRun, []), (MvmRun, []), (SpmxvRun, []),
    (MatrixMultiplyRun, []), (VectorRun, []),
    (MultiFpgaRun, ["io_words", "memory_bandwidth_gbytes",
                    "peak_flops_per_cycle"]),
])
def test_only_the_gang_overrides_a_rate(record, overrides):
    assert issubclass(record, KernelRun)
    assert sorted(set(RATES) & set(vars(record))) == overrides


def test_gang_rates_are_its_dram_traffic(rng):
    A = rng.standard_normal((64, 64))
    run = MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=32).run(A, A)
    assert run.peak_flops_per_cycle == 2 * 4 * 2
    assert run.io_words == run.dram_words
    assert run.memory_bandwidth_gbytes(130.0) == \
        run.dram_bandwidth_mbytes(130.0) / 1e3
    assert np.isclose(run.memory_bandwidth_gbytes(130.0),
                      run.words_per_cycle() * 8 * 130e6 / 1e9)
