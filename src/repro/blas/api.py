"""High-level BLAS API: ``dot``, ``gemv``, ``gemm``, ``spmxv``.

Each call simulates the corresponding FPGA design and returns a
:class:`BlasResult` — the numerical value together with a
:class:`PerfReport` (cycle count, wall-clock estimate at the design's
achievable clock, sustained MFLOPS, memory bandwidth and area),
mirroring the rows of the paper's Tables 3 and 4.

The executing calls are thin wrappers over one :class:`BlasCall`
descriptor, which both executes and predicts, so geometry and
validation cannot drift between the two paths:

* ``BlasCall(...).execute()`` simulates the design and returns a
  :class:`BlasResult`.
* ``BlasCall(...).plan()`` predicts the same call as an
  :class:`ExecutionPlan` — predicted cycles, clock and area — without
  executing anything.  A plan-only call may give a ``shape`` instead
  of operands.  The runtime scheduler (:mod:`repro.runtime`) uses
  plans to order and place jobs before committing a blade.

A gemm call with ``blades > 1`` targets the Section 5.2 multi-FPGA
linear array (:mod:`repro.blas.multi_fpga`): ``l`` co-located FPGAs
share one pass at effective latency n³/(k·l).  The runtime's gang
scheduler plans these as ``BlasCall("gemm", ..., blades=l).plan()``
and executes them via :func:`gemm_multi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Tuple

import numpy as np

from repro.blas.level1 import DotProductDesign
from repro.blas.level2 import ColumnMajorMvmDesign, TreeMvmDesign
from repro.blas.level3 import MatrixMultiplyDesign
from repro.blas.multi_fpga import MultiFpgaMatrixMultiply
from repro.device.area import AreaModel, DesignArea
from repro.reduction.single_adder import SingleAdderReduction
from repro.sim import fast as fastsim

#: Saturated reduction-circuit flush tail at the paper's adder depth
#: (α = 14): the flush cost of any final set of α + 3 or more values.
#: Short streams flush faster — :func:`reduction_flush_cycles` gives
#: the exact per-size cost the predictors use.
REDUCTION_FLUSH_CYCLES = 68


@lru_cache(maxsize=None)
def reduction_flush_cycles(set_size: int, alpha: int = 14) -> int:
    """Exact cycles the reduction circuit takes to flush its final set
    after the last tree-root value enters.

    The flush cost depends only on the final set's size: a singleton
    passes straight through (0 cycles), small sets pay roughly one
    adder traversal per pairing level, and any set of α + 3 or more
    values saturates at :data:`REDUCTION_FLUSH_CYCLES`.  Rather than
    hand-derive the piecewise closed form, this replays the final set
    through a throwaway :class:`SingleAdderReduction` (≤ α + 3 inputs,
    so at most ~85 cycles of micro-simulation, cached per size) —
    the simulator itself is the single source of timing truth, so the
    predictors cannot drift from it.
    """
    if set_size < 1:
        raise ValueError("set_size must be positive")
    size = min(set_size, alpha + 3)
    circuit = SingleAdderReduction(alpha=alpha)
    circuit.run([(1.0, i == size - 1) for i in range(size)])
    return circuit.flush()

#: Per-operation default lane counts (the paper's Table 3/4 choices).
DEFAULT_K = {"dot": 2, "gemv": 4, "gemm": 8, "spmxv": 4}


@dataclass(frozen=True)
class PerfReport:
    """Performance summary of one simulated BLAS call."""

    operation: str
    n: int
    k: int
    total_cycles: int
    clock_mhz: float
    flops: int
    area_slices: int
    device_utilization: float
    memory_bandwidth_gbytes: float
    efficiency: float

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.clock_mhz * 1e6)

    @property
    def sustained_mflops(self) -> float:
        return self.flops / self.seconds / 1e6

    @property
    def sustained_gflops(self) -> float:
        return self.sustained_mflops / 1000.0

    def summary(self) -> str:
        return (
            f"{self.operation}(n={self.n}, k={self.k}): "
            f"{self.total_cycles} cycles @ {self.clock_mhz:.0f} MHz = "
            f"{self.seconds * 1e3:.3f} ms, "
            f"{self.sustained_mflops:.1f} MFLOPS "
            f"({self.efficiency * 100:.1f}% of peak), "
            f"{self.memory_bandwidth_gbytes:.2f} GB/s, "
            f"{self.area_slices} slices "
            f"({self.device_utilization * 100:.0f}% of device)"
        )


@dataclass(frozen=True)
class BlasResult:
    """Value + report of one BLAS call: ``result.value`` and
    ``result.report``."""

    value: Any
    report: PerfReport


# ----------------------------------------------------------------------
# planning: predicted cycles/area without executing (runtime scheduling)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPlan:
    """Predicted cost of one BLAS call, computed without executing it.

    ``predicted_cycles`` is exact for ``gemm`` (single-blade and gang
    alike, both timing models are closed-form) and for ``dot``/``gemv``
    (their reduction-flush tail is replayed per final-set size via
    :func:`reduction_flush_cycles`); ``spmxv`` stays within a few
    percent.  ``design_key`` identifies the bitstream
    a blade must hold to run the job — two jobs with equal keys can
    share one configuration.  ``blades_required`` is 1 for every
    single-device design and ``l`` for a multi-FPGA gemm gang; gang
    members all load the same per-gang bitstream (the array's PE slice
    plus its inter-FPGA link logic differs from the standalone MM
    design, hence the distinct key).
    """

    operation: str
    n: int
    k: int
    m: Optional[int]
    predicted_cycles: int
    clock_mhz: float
    flops: int
    area: DesignArea
    blades_required: int = 1
    #: RapidArray boundary-crossing cycles already included in
    #: ``predicted_cycles`` when the gang spans chassis; 0 otherwise.
    #: Itemized so the runtime metrics can report the inter-chassis
    #: transfer term separately.
    inter_chassis_cycles: int = 0

    @property
    def predicted_seconds(self) -> float:
        return self.predicted_cycles / (self.clock_mhz * 1e6)

    @property
    def design_key(self) -> str:
        if self.blades_required > 1:
            return (f"multi_fpga_mm(k={self.k},m={self.m},"
                    f"l={self.blades_required})")
        if self.operation == "gemm":
            return f"matrix_multiply(k={self.k},m={self.m})"
        return f"{self.operation}(k={self.k})"


def gemm_geometry(p: int, q: int, r: int, k: int,
                  m: Optional[int]) -> Tuple[int, int]:
    """Block size and padded order of a gemm call — the single source
    of truth shared by the executing path, the planning path and the
    design-rule checker (:mod:`repro.analyze.drc`), so geometry cannot
    drift between them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    size = max(p, q, r)
    if m is None:
        m = k
        while m * 2 <= 128 and m * 2 <= size:
            m *= 2
    return m, m * math.ceil(size / m)


def max_gemm_gang(p: int, q: int, r: int, k: int = 8,
                  m: Optional[int] = None) -> int:
    """Widest feasible gang for a gemm of this shape: one FPGA per
    B m-block-column, so at most ``padded/m`` blades can contribute."""
    m, padded = gemm_geometry(p, q, r, k, m)
    return padded // m


@dataclass
class BlasCall:
    """One BLAS call, described once for both planning and execution.

    ``operands`` holds the positional arrays of the call — ``(u, v)``
    for dot, ``(A, x)`` for gemv, ``(A, B)`` for gemm, ``(matrix, x)``
    for spmxv.  ``shape`` may replace them for plan-only descriptors
    of the dense operations: ``(n,)`` for dot, ``(nrows, ncols)`` for
    gemv, ``(p, q, r)`` for gemm.  ``spmxv`` plans from the matrix's
    row structure, so it always needs the matrix operand (the second
    operand may be ``None`` when only planning).

    ``blades > 1`` plans/executes a gemm on the ``l``-FPGA linear
    array of Section 5.2 instead of the single-blade PE array.  Either
    array pads the operands to its own order, and ``plan`` takes its
    cycles from the array's ``cycles(n)``, the closed form its ``run``
    counts.  With ``fpgas_per_chassis`` set and ``blades`` exceeding
    it, the array spans chassis and both paths charge the same
    RapidArray boundary-crossing term, keeping plan == execute exact.
    ``execute`` builds every report in one place, :meth:`_result`.

    ``sim_mode`` selects the execution substrate: ``"cycle"``
    (default) steps the cycle-accurate designs; ``"fast"`` runs each
    design's proven-equivalent fast branch through the entry points of
    :mod:`repro.sim.fast` (byte-identical results, identical cycle
    counts).  A design whose fast branch is ineligible, such as a
    throttled dot, steps inside its own ``run``.  Gemm has one path in
    both modes: the single-blade and multi-FPGA arrays compute C with
    one exact-order kernel and count their cycles in closed form.
    Planning is unaffected — plans never execute either way.

    Design-rule checks live outside the call: ``repro analyze`` for
    designs, :meth:`repro.blas.program.BlasProgram.check` for programs.
    """

    operation: str
    operands: Optional[Tuple[Any, Any]] = None
    shape: Optional[Tuple[int, ...]] = None
    k: Optional[int] = None
    m: Optional[int] = None
    blades: int = 1
    architecture: str = "tree"
    block: Optional[int] = None
    clock_mhz: Optional[float] = None
    on_xd1: bool = False
    strict: bool = False
    sim_mode: str = "cycle"
    fpgas_per_chassis: Optional[int] = None

    def __post_init__(self) -> None:
        if self.operation not in DEFAULT_K:
            raise ValueError(
                f"unknown operation {self.operation!r}; "
                f"expected one of {tuple(DEFAULT_K)}")
        fastsim.check_sim_mode(self.sim_mode)
        if self.k is None:
            self.k = DEFAULT_K[self.operation]
        if self.blades < 1:
            raise ValueError("blades must be >= 1")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.blades > 1 and self.operation != "gemm":
            raise ValueError(
                "multi-FPGA gangs exist only for gemm "
                "(Section 5.2 linear array)")
        if (self.fpgas_per_chassis is not None
                and self.fpgas_per_chassis < 1):
            raise ValueError("fpgas_per_chassis must be >= 1")
        if self.operands is None and self.shape is None:
            raise ValueError(
                f"{self.operation} needs operands or a shape")

    # -- shared geometry/validation --------------------------------------
    def _dims(self) -> Tuple[int, ...]:
        """Problem dimensions, from operands or the declared shape —
        the single place both paths validate geometry."""
        op = self.operation
        if op == "spmxv":
            matrix = self.operands[0] if self.operands else None
            if matrix is None:
                raise ValueError(
                    "spmxv plans from the matrix's row structure; "
                    "pass operands=(matrix, x-or-None)")
            if matrix.nnz == 0:
                raise ValueError("spmxv matrix has no nonzeros")
            return (matrix.nrows, matrix.ncols)
        if self.operands is not None:
            if op == "dot":
                dims: Tuple[int, ...] = (int(np.shape(
                    self.operands[0])[0]),)
            elif op == "gemv":
                shape = np.shape(self.operands[0])
                dims = (int(shape[0]), int(shape[1]))
            else:  # gemm
                a_shape = np.shape(self.operands[0])
                b_shape = np.shape(self.operands[1])
                if (len(a_shape) != 2 or len(b_shape) != 2
                        or a_shape[1] != b_shape[0]):
                    raise ValueError("gemm needs A (p×q) and B (q×r)")
                dims = (int(a_shape[0]), int(a_shape[1]),
                        int(b_shape[1]))
        else:
            expected = {"dot": 1, "gemv": 2, "gemm": 3}[op]
            if len(self.shape) != expected:
                raise ValueError(
                    f"{op} shape needs {expected} dimension(s), got "
                    f"{self.shape!r}")
            dims = tuple(int(d) for d in self.shape)
        if min(dims) < 1:
            raise ValueError(
                "n must be positive" if op == "dot"
                else "matrix dimensions must be positive")
        return dims

    def _mvm_design(self):
        if self.architecture == "tree":
            return TreeMvmDesign(k=self.k)
        if self.architecture == "column":
            return ColumnMajorMvmDesign(k=self.k)
        raise ValueError(
            f"unknown MVM architecture {self.architecture!r}")

    def _area(self) -> DesignArea:
        if self.operation == "dot":
            return AreaModel().dot_product_design(self.k,
                                                  on_xd1=self.on_xd1)
        if self.operation == "gemm":
            return AreaModel().mm_design(self.k, on_xd1=self.on_xd1)
        return AreaModel().mvm_design(self.k, on_xd1=self.on_xd1)

    def _clock(self, area: DesignArea) -> float:
        return (self.clock_mhz if self.clock_mhz is not None
                else area.clock_mhz)

    def _gemm_design(self, m: int, padded: int) -> Any:
        """The single-blade array, or for ``blades > 1`` the l-FPGA
        array with one b×b block spanning the padded problem."""
        if self.blades > 1:
            return MultiFpgaMatrixMultiply(l=self.blades, k=self.k, m=m,
                                           b=padded)
        return MatrixMultiplyDesign(k=self.k, m=m)

    def _inter_chassis_cycles(self, m: int, padded: int) -> int:
        """RapidArray boundary-crossing cycles of a chassis-spanning
        gang — the one closed form both plan and execute charge."""
        if self.blades <= 1 or self.fpgas_per_chassis is None:
            return 0
        from repro.device.interconnect import \
            inter_chassis_transfer_cycles

        return inter_chassis_transfer_cycles(
            self.blades, self.fpgas_per_chassis, m, padded, self.k)

    # -- planning --------------------------------------------------------
    def plan(self) -> ExecutionPlan:
        """Predict this call without executing it."""
        op = self.operation
        dims = self._dims()
        if op == "dot":
            design = DotProductDesign(k=self.k)
            n = dims[0]
            rows = math.ceil(n / self.k)
            # ⌈n/k⌉ tree-root values stream in behind the multiplier
            # and tree fill; the reduction circuit then flushes one
            # final set of exactly that many values.  The tree pipe is
            # one stage deep even at k = 1 (tree_latency 0).
            cycles = (rows + design.alpha_mul
                      + max(1, design.tree_latency)
                      + reduction_flush_cycles(rows, design.alpha_add))
            flops = 2 * n
            operation = "dot"
        elif op == "gemv":
            design = self._mvm_design()
            nrows, ncols = dims
            if self.architecture == "tree":
                sets = math.ceil(ncols / self.k)
                # nrows back-to-back sets of ⌈ncols/k⌉ tree-root
                # values; only the last set's flush extends the run.
                cycles = (nrows * sets + design.alpha_mul
                          + max(1, design.tree_latency)
                          + reduction_flush_cycles(sets,
                                                   design.alpha_add))
            else:
                # A hazard fails every run of the call: fail its plan.
                design.check_hazards(nrows, ncols, self.block)
                cycles = design.cycles(nrows, ncols)
            n = max(nrows, ncols)
            flops = 2 * nrows * ncols
            operation = f"gemv[{self.architecture}]"
        elif op == "gemm":
            p, q, r = dims
            m, padded = gemm_geometry(p, q, r, self.k, self.m)
            cycles = self._gemm_design(m, padded).cycles(padded)
            crossing = self._inter_chassis_cycles(m, padded)
            area = self._area()
            return ExecutionPlan(
                operation="gemm", n=max(p, q, r), k=self.k, m=m,
                predicted_cycles=cycles + crossing,
                clock_mhz=self._clock(area), flops=2 * p * q * r,
                area=area, blades_required=self.blades,
                inter_chassis_cycles=crossing)
        else:  # spmxv
            from repro.sparse.spmxv import SpmxvDesign

            matrix = self.operands[0]
            design = SpmxvDesign(k=self.k)
            row_nnz = np.diff(matrix.row_ptr)
            chunks = int(np.sum(np.ceil(row_nnz / self.k)))
            cycles = (chunks + design.alpha_mul + design.tree_latency
                      + design.alpha_add)
            n = matrix.nrows
            flops = 2 * matrix.nnz
            operation = "spmxv"
        area = self._area()
        return ExecutionPlan(operation=operation, n=n, k=self.k,
                             m=None, predicted_cycles=cycles,
                             clock_mhz=self._clock(area), flops=flops,
                             area=area)

    # -- execution -------------------------------------------------------
    def execute(self) -> BlasResult:
        """Simulate the design and return value + report."""
        if self.operands is None:
            raise ValueError(
                f"cannot execute a shape-only {self.operation} call")
        op = self.operation
        dims = self._dims()
        use_fast = self.sim_mode == "fast"
        if op == "dot":
            u, v = self.operands
            design = DotProductDesign(k=self.k)
            run = (fastsim.fast_dot(design, u, v) if use_fast
                   else design.run(u, v))
            return self._result(run.result, "dot", run.n, run)
        if op == "gemv":
            A, x = self.operands
            design = self._mvm_design()
            if use_fast:
                run = fastsim.fast_mvm(design, A, x, block=self.block)
            elif self.block:
                run = design.run_blocked(A, x, self.block)
            else:
                run = design.run(A, x)
            return self._result(run.y, f"gemv[{self.architecture}]",
                                run.n, run)
        if op == "gemm":
            A, B = self.operands
            p, q, r = dims
            m, padded = gemm_geometry(p, q, r, self.k, self.m)
            design = self._gemm_design(m, padded)
            # The single-blade array's cycle model is already analytic
            # (closed-form timing + an exact-order sweep), so fast mode
            # runs the same path — the "already exact" tier.
            if self.blades == 1:
                run = design.run(A, B, strict=self.strict)
            elif use_fast:
                run = fastsim.fast_multi_fpga_mm(design, A, B)
            else:
                run = design.run(A, B)
            total = (run.total_cycles
                     + self._inter_chassis_cycles(m, padded))
            # Useful flops only; cycles include any padding work, so
            # the efficiency of a badly-shaped problem honestly
            # degrades.
            flops = 2 * p * q * r
            return self._result(
                run.C, "gemm", max(p, q, r), run, total_cycles=total,
                flops=flops,
                efficiency=flops / (total * run.peak_flops_per_cycle))
        from repro.sparse.spmxv import SpmxvDesign

        matrix, x = self.operands
        design = SpmxvDesign(k=self.k)
        run = (fastsim.fast_spmxv(design, matrix, x) if use_fast
               else design.run(matrix, x))
        return self._result(run.y, "spmxv", run.nrows, run)

    def _result(self, value: Any, operation: str, n: int, run: Any,
                total_cycles: Optional[int] = None,
                flops: Optional[int] = None,
                efficiency: Optional[float] = None) -> BlasResult:
        """The call's value and its report, from the run's counters and
        rates and this call's area and clock.  A gemm passes the three
        numbers it charges beyond its design: the inter-chassis
        crossing, the useful (unpadded) flops and their efficiency."""
        area = self._area()
        clock = self._clock(area)
        return BlasResult(value, PerfReport(
            operation=operation, n=n, k=self.k,
            total_cycles=(run.total_cycles if total_cycles is None
                          else total_cycles),
            clock_mhz=clock,
            flops=run.flops if flops is None else flops,
            area_slices=area.slices,
            device_utilization=area.utilization,
            memory_bandwidth_gbytes=run.memory_bandwidth_gbytes(clock),
            efficiency=run.efficiency if efficiency is None else efficiency,
        ))


# ----------------------------------------------------------------------
# executing wrappers
# ----------------------------------------------------------------------
def dot(u: np.ndarray, v: np.ndarray, k: int = 2,
        clock_mhz: Optional[float] = None,
        on_xd1: bool = False, sim_mode: str = "cycle") -> BlasResult:
    """Dot product on the tree architecture (Table 3: k=2)."""
    return BlasCall("dot", operands=(u, v), k=k, clock_mhz=clock_mhz,
                    on_xd1=on_xd1, sim_mode=sim_mode).execute()


def gemv(A: np.ndarray, x: np.ndarray, k: int = 4,
         architecture: str = "tree",
         clock_mhz: Optional[float] = None,
         on_xd1: bool = False,
         block: Optional[int] = None,
         sim_mode: str = "cycle") -> BlasResult:
    """Matrix-vector multiply (Table 3/4: k=4, tree architecture).

    ``architecture`` selects "tree" (row-major A) or "column"
    (column-major A); ``block`` enables block decomposition with the
    given block size.
    """
    return BlasCall("gemv", operands=(A, x), k=k,
                    architecture=architecture, block=block,
                    clock_mhz=clock_mhz, on_xd1=on_xd1,
                    sim_mode=sim_mode).execute()


def gemm(A: np.ndarray, B: np.ndarray, k: int = 8,
         m: Optional[int] = None,
         clock_mhz: Optional[float] = None,
         on_xd1: bool = False,
         strict: bool = False,
         sim_mode: str = "cycle") -> BlasResult:
    """Dense matrix multiply on the linear PE array (Table 4: k=m=8).

    Accepts rectangular operands (the paper notes its designs apply to
    non-square matrices): shapes are zero-padded to the next square
    multiple of the block size, and the padding cycles are honestly
    charged to the report.  ``m`` defaults to the largest block that
    divides the padded size and is a multiple of k (capped at 128, the
    paper's on-chip limit).
    """
    return BlasCall("gemm", operands=(A, B), k=k, m=m,
                    clock_mhz=clock_mhz, on_xd1=on_xd1, strict=strict,
                    sim_mode=sim_mode).execute()


def gemm_multi(A: np.ndarray, B: np.ndarray, l: int, k: int = 8,
               m: Optional[int] = None,
               clock_mhz: Optional[float] = None,
               on_xd1: bool = False,
               sim_mode: str = "cycle",
               fpgas_per_chassis: Optional[int] = None) -> BlasResult:
    """Dense matrix multiply on the ``l``-FPGA linear array
    (Section 5.2), in the block geometry of :func:`gemm`: the array
    pads A and B to one b×b block itself and runs it as one pass
    striped over ``l`` blades at effective latency n³/(k·l).  The
    report's efficiency is measured against the array's 2·k·l
    flops/cycle peak.  With ``fpgas_per_chassis`` the array may span
    chassis; the RapidArray boundary crossings are charged."""
    return BlasCall("gemm", operands=(A, B), k=k, m=m, blades=l,
                    clock_mhz=clock_mhz, on_xd1=on_xd1,
                    sim_mode=sim_mode,
                    fpgas_per_chassis=fpgas_per_chassis).execute()


def spmxv(matrix, x: np.ndarray, k: int = 4,
          clock_mhz: Optional[float] = None,
          on_xd1: bool = False, sim_mode: str = "cycle") -> BlasResult:
    """Sparse matrix-vector multiply on the tree architecture.

    ``matrix`` is a :class:`repro.sparse.csr.CsrMatrix`; the design is
    the paper's [32] SpMXV (k multipliers + adder tree + reduction
    circuit), whose area matches the Level-2 tree design.
    """
    return BlasCall("spmxv", operands=(matrix, x), k=k,
                    clock_mhz=clock_mhz, on_xd1=on_xd1,
                    sim_mode=sim_mode).execute()


def gemm_fixed_overhead_cycles(k: int, m: int) -> int:
    """Per-pass fixed cycles of the Level-3 design (startup, drain and
    final C-block output).  When the runtime coalesces same-shape gemm
    jobs into one pass, every job after the first saves this amount."""
    return MatrixMultiplyDesign(k=k, m=m,
                                relax_hazard_check=True).fixed_cycles()
