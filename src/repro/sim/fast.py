"""Calibrated fast simulation mode (``--sim-mode fast``).

Every architectural claim in this repo is *executed* on the
cycle-accurate substrate; that honesty makes the Python simulator the
throughput bottleneck of every benchmark and of ``repro.serve``.  This
module removes the bottleneck without giving up the claims, in two
tiers:

1. **Analytic fast-forward** — phases whose timing model is proven
   exact skip cycle stepping entirely.  The gemm designs are already
   closed-form; the gang (:class:`~repro.blas.multi_fpga.
   MultiFpgaMatrixMultiply`) datapath is replaced by slab matmuls with
   analytically derived traffic counters, and the dot/gemv/spmxv tails
   come out of the *recorded* reduction schedule (below), so every
   charged cycle equals the cycle-accurate count.  Their front end —
   validation, lane padding, products and adder-tree fold — is the
   design's own ``tree_partials``, the one cycle mode steps from, so
   the two modes differ only in how they run the reduction circuit.
2. **Vectorized stepping** — the irregular path, the single-adder
   reduction circuit, is value-independent: the controller's decisions
   (fill, fold, bank swap, drain pick) depend only on set sizes and
   arrival timing, never on data.  We therefore *record* the
   association schedule once per arrival pattern by replaying integer
   node ids through a real :class:`~repro.reduction.single_adder.
   SingleAdderReduction` (its ``op=`` hook), memoize the resulting
   dependency DAG, and apply it to real values as NumPy index
   operations grouped by dependency level — whole quiescent regions of
   the schedule advance per vector op instead of per cycle.

Both tiers return the **same** run objects (``DotProductRun``,
``MvmRun``, ``SpmxvRun``, ``MultiFpgaRun``) with byte-identical float64
results and identical cycle counts, so every downstream consumer —
``PerfReport``, the runtime's virtual clocks, tracers, metrics — works
unchanged.  The differential harness
(``tests/test_sim_fast_differential.py``) enforces this equivalence on
the full shape grid and the chaos replay suite.

The only cost that remains is a one-time recording pass per distinct
reduction arrival pattern (≈ one cycle-mode reduction replay, then
cached), which steady-state traffic — the serve loop re-executing the
same shapes — never pays again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.blas.level1 import DotProductDesign, DotProductRun
from repro.blas.level2 import (
    ColumnMajorMvmDesign,
    MvmHazardError,
    MvmRun,
    TreeMvmDesign,
)
from repro.blas.multi_fpga import MultiFpgaMatrixMultiply, MultiFpgaRun
from repro.reduction.base import ReducedResult
from repro.reduction.single_adder import SingleAdderReduction
from repro.sim.engine import SimulationError

#: Valid values of every ``sim_mode=`` knob (BlasCall, BlasRuntime,
#: ServeConfig, ``--sim-mode``).  ``cycle`` always steps the designs;
#: ``fast`` uses the proven-equivalent paths wherever one exists and
#: falls back to cycle stepping otherwise.
SIM_MODES = ("cycle", "fast")


# ----------------------------------------------------------------------
# tier 2: recorded reduction schedules
# ----------------------------------------------------------------------
#: Arrival-pattern byte codes: one byte per producer cycle.
PAT_BUBBLE, PAT_VALUE, PAT_LAST = 0, 1, 2


def back_to_back_pattern(sizes: Sequence[int]) -> bytes:
    """Arrival pattern of ``len(sizes)`` sets delivered back to back,
    one value per cycle — the pattern every dense kernel produces."""
    return b"".join(
        bytes([PAT_VALUE]) * (int(s) - 1) + bytes([PAT_LAST])
        for s in sizes
    )


@dataclass(frozen=True)
class ReductionProgram:
    """One recorded association schedule of the reduction circuit.

    Nodes ``0..n_inputs-1`` are the streamed values in arrival order;
    nodes ``n_inputs..n_nodes-1`` are adder outputs in issue order.
    ``levels`` holds the additions grouped by dependency depth as
    ``(a, b, out)`` index arrays — every addition computes
    ``value[out] = value[a] + value[b]``, the exact operand order the
    circuit issued.  ``emits`` lists the completed sets in emission
    order as ``(set_id, root_node, cycle)``; ``flush_cycles`` is what
    :meth:`SingleAdderReduction.flush` returned past the pattern's end.
    """

    pattern: bytes
    alpha: int
    drain_policy: str
    n_inputs: int
    n_nodes: int
    levels: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    emits: Tuple[Tuple[int, int, int], ...]
    flush_cycles: int

    @property
    def last_emit_cycle(self) -> int:
        """Cycle of the final emission (0 when nothing was streamed)."""
        return self.emits[-1][2] if self.emits else 0

    def apply(self, values: np.ndarray) -> List[ReducedResult]:
        """Replay the recorded schedule over real values, vectorized by
        dependency level.  Returns the same ``results`` list the
        cycle-accurate circuit produces — same values (bit for bit,
        same operand order per addition), same set ids, same emission
        cycles."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if len(values) != self.n_inputs:
            raise ValueError(
                f"program expects {self.n_inputs} values, got "
                f"{len(values)}")
        vals = np.empty(self.n_nodes, dtype=np.float64)
        vals[:self.n_inputs] = values
        for a_idx, b_idx, out_idx in self.levels:
            # Fancy-index reads copy before the write lands, and level
            # grouping guarantees operands come from earlier levels.
            vals[out_idx] = vals[a_idx] + vals[b_idx]
        return [
            ReducedResult(set_id, float(vals[root]), cycle)
            for set_id, root, cycle in self.emits
        ]


@lru_cache(maxsize=64)
def reduction_program(pattern: bytes, alpha: int = 14,
                      drain_policy: str = "most-work") -> ReductionProgram:
    """Record (once, then cached) the reduction schedule for one
    arrival pattern.

    The circuit's control flow is value-independent, so streaming the
    node ids ``0, 1, 2, …`` as float values with an instrumented adder
    ``op`` observes every association the circuit would perform on any
    data with this timing.  The recording pass costs one cycle-mode
    replay of the pattern; every later call with the same
    ``(pattern, alpha, drain_policy)`` is a cache hit.
    """
    n_inputs = sum(1 for code in pattern if code != PAT_BUBBLE)
    ops: List[Tuple[int, int, int]] = []
    next_id = n_inputs

    def record(a: float, b: float) -> float:
        nonlocal next_id
        out = next_id
        next_id += 1
        ops.append((int(a), int(b), out))
        return float(out)

    circuit = SingleAdderReduction(alpha=alpha, drain_policy=drain_policy,
                                   op=record)
    node = 0
    for code in pattern:
        if code == PAT_BUBBLE:
            circuit.cycle()
        else:
            if not circuit.cycle(float(node), last=(code == PAT_LAST)):
                raise SimulationError(
                    f"reduction stalled at input {node} while recording "
                    f"a fast-mode schedule; the pattern violates the "
                    f"circuit's stall-freedom envelope"
                )
            node += 1
    flush_cycles = circuit.flush()

    # Group the additions by dependency depth for vectorized replay.
    depth = [0] * next_id
    for a, b, out in ops:
        depth[out] = max(depth[a], depth[b]) + 1
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if ops:
        arr = np.asarray(ops, dtype=np.int64)
        op_depth = np.asarray([depth[out] for _, _, out in ops],
                              dtype=np.int64)
        order = np.argsort(op_depth, kind="stable")
        ordered = arr[order]
        bounds = np.flatnonzero(np.diff(op_depth[order])) + 1
        for chunk in np.split(ordered, bounds):
            levels.append((chunk[:, 0].copy(), chunk[:, 1].copy(),
                           chunk[:, 2].copy()))

    emits = tuple(
        (res.set_id, int(res.value), res.cycle)
        for res in circuit.results
    )
    return ReductionProgram(
        pattern=pattern, alpha=alpha, drain_policy=drain_policy,
        n_inputs=n_inputs, n_nodes=next_id, levels=tuple(levels),
        emits=emits, flush_cycles=flush_cycles,
    )


class FastReduction:
    """Drop-in vectorized stand-in for :class:`SingleAdderReduction`.

    Events offered via :meth:`cycle` are buffered as an arrival
    pattern; :meth:`flush` records (or cache-hits) the schedule and
    materializes ``results`` in one vectorized replay.  Values, set
    ids and emission cycles are byte-identical to the cycle-accurate
    circuit's — the property suite in
    ``tests/test_reduction_properties.py`` proves it on random
    interleavings.  Unlike the cycle circuit, ``results`` only
    materializes at :meth:`flush` time.
    """

    def __init__(self, alpha: int = 14,
                 drain_policy: str = "most-work") -> None:
        # Reuse the circuit's own constructor validation.
        SingleAdderReduction(alpha=alpha, drain_policy=drain_policy)
        self.alpha = alpha
        self.drain_policy = drain_policy
        self.num_adders = 1
        self.buffer_words = 2 * alpha * alpha
        self._pattern = bytearray()
        self._values: List[float] = []
        self.results: List[ReducedResult] = []
        self._flushed = False

    def cycle(self, value: Optional[float] = None,
              last: bool = False) -> bool:
        """Buffer one producer cycle (stall-freedom is verified at
        flush time; valid patterns never stall)."""
        if value is None:
            self._pattern.append(PAT_BUBBLE)
        else:
            self._pattern.append(PAT_LAST if last else PAT_VALUE)
            self._values.append(float(value))
        self._flushed = False
        return True

    def busy(self) -> bool:
        return bool(self._values) and not self._flushed

    def flush(self, max_cycles: int = 1_000_000) -> int:
        """Record/replay the buffered pattern; returns the flush-tail
        cycle count, exactly as the cycle circuit reports it."""
        program = reduction_program(bytes(self._pattern), self.alpha,
                                    self.drain_policy)
        if program.flush_cycles > max_cycles:
            raise SimulationError(
                f"reduction circuit failed to drain within {max_cycles} "
                f"cycles"
            )
        self.results = program.apply(np.asarray(self._values))
        self._flushed = True
        return program.flush_cycles


# ----------------------------------------------------------------------
# tier 1: analytic fast-forward of the BLAS kernels
# ----------------------------------------------------------------------
def fast_dot(design: DotProductDesign, u: np.ndarray,
             v: np.ndarray) -> Optional[DotProductRun]:
    """Fast-forward :meth:`DotProductDesign.run`.

    Returns ``None`` (caller falls back to cycle stepping) when the
    memory throttle is narrower than 2k words/cycle — then issue
    timing depends on the token counter and the back-to-back pattern
    assumption breaks.
    """
    if design.words_per_cycle < 2 * design.k:
        return None
    n, partials = design.tree_partials(u, v)
    k = design.k
    rows = len(partials)
    program = reduction_program(back_to_back_pattern((rows,)),
                                design.alpha_add)
    result = program.apply(partials)[0]
    # Row r issues at cycle r + 1; its tree-root partial enters the
    # reduction alpha_mul + max(1, tree_latency) cycles later, and the
    # run ends the cycle the single set emits.
    total = (result.cycle + design.alpha_mul
             + max(1, design.tree_latency))
    return DotProductRun(
        result=result.value, n=n, k=k, total_cycles=total,
        input_cycles=rows, flops=2 * n, words_read=rows * 2 * k,
    )


def _fast_tree_mvm(design: TreeMvmDesign, A: np.ndarray,
                   x: np.ndarray) -> MvmRun:
    ncols, partials = design.tree_partials(A, x)
    nrows, groups = partials.shape
    k = design.k
    program = reduction_program(
        back_to_back_pattern((groups,) * nrows), design.alpha_add)
    results = program.apply(partials.ravel())
    y = np.zeros(nrows)
    for res in results:
        y[res.set_id] = res.value
    total = (program.last_emit_cycle + design.alpha_mul
             + max(1, design.tree_latency))
    return MvmRun(y=y, n=max(nrows, ncols), k=k, total_cycles=total,
                  flops=2 * nrows * ncols,
                  words_read=nrows * groups * k,
                  words_written=nrows, architecture="tree")


def _fast_tree_mvm_blocked(design: TreeMvmDesign, A: np.ndarray,
                           x: np.ndarray, b: int) -> MvmRun:
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    nrows, ncols = A.shape
    if b < 1:
        raise ValueError("block width must be positive")
    design._check_local_storage(min(b, ncols))
    nblocks = math.ceil(ncols / b)
    y = np.zeros(nrows)
    cycles = 0
    words_read = 0
    words_written = 0
    for blk in range(nblocks):
        lo, hi = blk * b, min((blk + 1) * b, ncols)
        sub = _fast_tree_mvm(design, A[:, lo:hi], x[lo:hi])
        cycles += sub.total_cycles
        words_read += sub.words_read + (hi - lo)
        words_written += nrows
        if blk > 0:
            words_read += nrows
        y += sub.y
    return MvmRun(y=y, n=max(nrows, ncols), k=design.k,
                  total_cycles=cycles, flops=2 * nrows * ncols,
                  words_read=words_read, words_written=words_written,
                  architecture="tree-blocked", blocks=nblocks)


def _fast_column_mvm(design: ColumnMajorMvmDesign, A: np.ndarray,
                     x: np.ndarray) -> MvmRun:
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    nrows, ncols = A.shape
    if ncols != len(x):
        raise ValueError("dimension mismatch")
    if design.bram_words is not None and nrows > design.bram_words:
        raise MemoryError(
            f"intermediate y of {nrows} words exceeds on-chip storage; "
            f"use run_blocked()"
        )
    k = design.k
    groups = math.ceil(nrows / k)
    padded_rows = groups * k
    # The cycle design's first re-touch of a y row happens at cycle
    # groups + 1 while its previous update lands at 1 + alpha_add;
    # landing pops run before the check, so groups == alpha_add is
    # forwarded and only groups < alpha_add faults.
    if ncols >= 2 and groups < design.alpha_add:
        raise MvmHazardError(
            f"row 0 updated at cycle {groups + 1} while its "
            f"previous update lands at cycle {1 + design.alpha_add}; "
            f"n/k = {groups} <= adder depth {design.alpha_add}"
        )
    if nrows % k:
        A = np.vstack([A, np.zeros((padded_rows - nrows, ncols))])
    y = np.zeros(padded_rows)
    for col in range(ncols):
        # Hazard-freedom means every update landed before the next
        # touch, so the accumulation is a plain per-column sweep with
        # the cycle design's exact per-element operand order.
        y += A[:, col] * x[col]
    total = ncols * groups + design.alpha_add + design.alpha_mul
    return MvmRun(y=y[:nrows], n=max(nrows, ncols), k=k,
                  total_cycles=total, flops=2 * nrows * ncols,
                  words_read=ncols * groups * k + ncols,
                  words_written=nrows, architecture="column-major")


def _fast_column_mvm_blocked(design: ColumnMajorMvmDesign,
                             A: np.ndarray, x: np.ndarray,
                             b: int) -> MvmRun:
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    nrows, ncols = A.shape
    if b < 1:
        raise ValueError("block height must be positive")
    nblocks = math.ceil(nrows / b)
    parts: List[np.ndarray] = []
    cycles = 0
    words_read = 0
    words_written = 0
    for blk in range(nblocks):
        lo, hi = blk * b, min((blk + 1) * b, nrows)
        sub = _fast_column_mvm(design, A[lo:hi, :], x)
        parts.append(sub.y)
        cycles += sub.total_cycles
        words_read += sub.words_read
        words_written += sub.words_written
    return MvmRun(y=np.concatenate(parts), n=max(nrows, ncols),
                  k=design.k, total_cycles=cycles,
                  flops=2 * nrows * ncols, words_read=words_read,
                  words_written=words_written,
                  architecture="column-major-blocked", blocks=nblocks)


def fast_mvm(design, A: np.ndarray, x: np.ndarray,
             block: Optional[int] = None) -> Optional[MvmRun]:
    """Fast-forward either MVM architecture, blocked or not.  Always
    eligible; hazard and storage faults are raised identically to the
    cycle path."""
    if isinstance(design, TreeMvmDesign):
        if block:
            return _fast_tree_mvm_blocked(design, A, x, block)
        return _fast_tree_mvm(design, A, x)
    if isinstance(design, ColumnMajorMvmDesign):
        if block:
            return _fast_column_mvm_blocked(design, A, x, block)
        return _fast_column_mvm(design, A, x)
    return None


def fast_spmxv(design, matrix, x: np.ndarray):
    """Fast-forward :meth:`SpmxvDesign.run` — and unlike the plan's
    few-percent drift bar, the recorded schedule makes the fast cycle
    count *exact* even for arbitrary sparsity."""
    from repro.sparse.spmxv import SpmxvRun

    nonempty, sizes, partials = design.tree_partials(matrix, x)
    k = design.k
    if len(partials) == 0:
        return SpmxvRun(y=np.zeros(matrix.nrows), nrows=matrix.nrows,
                        nnz=matrix.nnz, k=k, total_cycles=0,
                        words_read=0)
    program = reduction_program(
        back_to_back_pattern(tuple(int(s) for s in sizes)),
        design.alpha_add)
    results = program.apply(partials)
    y = np.zeros(matrix.nrows)
    for res in results:
        y[nonempty[res.set_id]] = res.value
    total = (program.last_emit_cycle + design.alpha_mul
             + max(1, design.tree_latency))
    return SpmxvRun(y=y, nrows=matrix.nrows, nnz=matrix.nnz, k=k,
                    total_cycles=total, words_read=2 * k * len(partials))


# ----------------------------------------------------------------------
# tier 1: the multi-FPGA gang
# ----------------------------------------------------------------------
@lru_cache(maxsize=16)
def _slab_matmul_consistent(rows: int, m: int) -> bool:
    """Self-calibration: the gang fast path computes each z-slab as one
    ``(rows×m) @ (m×rows)`` matmul instead of ``(rows/m)²`` separate
    ``m×m`` matmuls.  Both are length-``m`` inner sums per output
    element, and every BLAS we have met accumulates them identically —
    but that is a library property, not a language guarantee, so we
    verify it once per geometry on deterministic noise and fall back to
    cycle stepping if it ever fails."""
    idx = np.arange(rows * m, dtype=np.float64)
    a = np.sin(idx).reshape(rows, m)
    b = np.cos(idx).reshape(m, rows)
    slab = a @ b
    for g in range(rows // m):
        gs = slice(g * m, (g + 1) * m)
        for h in range(rows // m):
            hs = slice(h * m, (h + 1) * m)
            if not np.array_equal(slab[gs, hs], a[gs, :] @ b[:, hs]):
                return False
    return True


def fast_multi_fpga_mm(design: MultiFpgaMatrixMultiply, A: np.ndarray,
                       B: np.ndarray) -> Optional[MultiFpgaRun]:
    """Fast-forward :meth:`MultiFpgaMatrixMultiply.run`: slab matmuls
    in the cycle path's exact (q, z) accumulation order plus the
    closed-form traffic/latency counters the paper derives (Section
    6.4).  Returns ``None`` when the slab/block BLAS self-check fails,
    sending the caller back to cycle stepping."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be equal square matrices")
    n = A.shape[0]
    b, m, k, l = design.b, design.m, design.k, design.l
    if n % b:
        raise ValueError(f"n = {n} must be a multiple of b = {b}")
    if not _slab_matmul_consistent(b, m):
        return None
    nb = n // b
    bm = b // m

    C = np.zeros((n, n))
    for i in range(nb):
        for j in range(nb):
            c_big = np.zeros((b, b))
            for q in range(nb):
                a_big = A[i * b:(i + 1) * b, q * b:(q + 1) * b]
                b_big = B[q * b:(q + 1) * b, j * b:(j + 1) * b]
                for z in range(bm):
                    c_big += (a_big[:, z * m:(z + 1) * m]
                              @ b_big[z * m:(z + 1) * m, :])
            C[i * b:(i + 1) * b, j * b:(j + 1) * b] = c_big

    # Traffic and load balance, closed form (matches the cycle loop's
    # per-(i,j,q) accounting exactly).
    dram_words = nb * nb * (nb * 2 * b * b + b * b)
    link_words = (l - 1) * nb * nb * (nb * 2 * b * b + b * b)
    fpga_block_macs = [
        nb ** 3 * bm * bm * len(range(f, bm, l)) for f in range(l)
    ]
    if sum(fpga_block_macs) != (n // m) ** 3:
        raise SimulationError("block MAC count mismatch")
    compute_cycles = max(fpga_block_macs) * design.block_mac_cycles()
    total = (compute_cycles
             + design.array_latency_cycles()
             + design.mm.startup_cycles()
             + design.mm.drain_cycles()
             + m * m)
    return MultiFpgaRun(
        C=C, n=n, b=b, m=m, k=k, l=l,
        total_cycles=total,
        compute_cycles=compute_cycles,
        dram_words=dram_words,
        link_words=link_words,
        sram_words_per_fpga=design.sram_words_needed,
        fpga_block_macs=fpga_block_macs,
    )
