"""FPGA BLAS designs (the paper's library surface).

* :mod:`repro.blas.level1` — dot product on the tree architecture
  (Section 4.1).
* :mod:`repro.blas.level2` — matrix-vector multiply, both the
  row-major (tree + reduction) and column-major (k accumulator lanes)
  architectures, with block decomposition for large n (Section 4.2).
* :mod:`repro.blas.level3` — dense matrix multiply on the linear PE
  array (Section 5.1); :mod:`repro.blas.exact_gemm` is the compiled
  kernel that sums its cells in the array's order.
* :mod:`repro.blas.multi_fpga` — the hierarchical multi-FPGA matrix
  multiply exploiting the full memory hierarchy (Section 5.2).
* :mod:`repro.blas.run` — the rates every design's run record reports.
* :mod:`repro.blas.api` — the user-facing ``dot`` / ``gemv`` / ``gemm``
  / ``spmxv`` entry points that pair numerical results with performance
  reports, and the :class:`BlasCall` descriptor whose ``plan()`` the
  runtime scheduler places jobs with.
"""

from repro.blas.level1 import DotProductDesign, DotProductRun
from repro.blas.level2 import (
    ColumnMajorMvmDesign,
    MvmRun,
    TreeMvmDesign,
)
from repro.blas.level3 import MatrixMultiplyDesign, MatrixMultiplyRun
from repro.blas.multi_fpga import MultiFpgaMatrixMultiply, MultiFpgaRun
from repro.blas.api import (
    BlasCall,
    BlasResult,
    ExecutionPlan,
    PerfReport,
    dot,
    gemm,
    gemm_multi,
    gemv,
    max_gemm_gang,
    spmxv,
)
from repro.blas.program import (
    BlasProgram,
    ProgramPlan,
    ProgramRun,
    Ref,
)

__all__ = [
    "DotProductDesign",
    "DotProductRun",
    "TreeMvmDesign",
    "ColumnMajorMvmDesign",
    "MvmRun",
    "MatrixMultiplyDesign",
    "MatrixMultiplyRun",
    "MultiFpgaMatrixMultiply",
    "MultiFpgaRun",
    "dot",
    "gemv",
    "gemm",
    "gemm_multi",
    "spmxv",
    "max_gemm_gang",
    "BlasCall",
    "BlasResult",
    "BlasProgram",
    "ExecutionPlan",
    "PerfReport",
    "ProgramPlan",
    "ProgramRun",
    "Ref",
]
