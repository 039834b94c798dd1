"""Calibrated fast simulation mode (``--sim-mode fast``).

Every architectural claim in this repo is *executed* on the
cycle-accurate substrate; that honesty makes the Python simulator the
throughput bottleneck of every benchmark and of ``repro.serve``.  Fast
mode removes the bottleneck without giving up the claims.  Each design
BlasCall runs owns both modes behind its ``run(..., sim_mode=)``: the
tree kernels share :meth:`repro.blas.level1.TreeDatapath.stream`,
which steps the reduction circuit or replays its recorded schedule,
and column-major gemv keeps a closed-form branch next to its stepped
loop.  Gemm, on one blade or a multi-FPGA gang, has no ``sim_mode``:
one exact-order kernel computes its C and its counters are closed
forms in either mode.  This module imports no design; it holds:

* **Recorded reduction schedules.**  The single-adder reduction
  circuit's controller is value-independent: its decisions (fill,
  fold, bank swap, drain pick) depend only on set sizes and arrival
  timing, never on data.  We therefore *record* the association
  schedule once per arrival pattern by replaying integer node ids
  through a real :class:`~repro.reduction.single_adder.
  SingleAdderReduction` (its ``op=`` hook), memoize the resulting
  dependency DAG, and apply it to real values as NumPy index
  operations grouped by dependency level — whole quiescent regions of
  the schedule advance per vector op instead of per cycle, and one
  gather returns every set's sum as one array indexed by set id.
* **The fast entry points** ``fast_dot``, ``fast_mvm``, ``fast_spmxv``
  and ``fast_multi_fpga_mm``, which :class:`repro.blas.api.BlasCall`
  calls in fast mode; each is one ``design.run``, with
  ``sim_mode="fast"`` where the design has the knob.

Both modes return the **same** run objects with byte-identical float64
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

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.reduction.single_adder import FeedEntry, SingleAdderReduction
from repro.sim.engine import SimulationError

#: Valid values of every ``sim_mode=`` knob (the designs' ``run``,
#: BlasCall, BlasRuntime, ServeConfig, ``--sim-mode``).  ``cycle``
#: steps the designs; ``fast`` takes each design's proven-equivalent
#: branch where its eligibility holds and steps otherwise.
SIM_MODES = ("cycle", "fast")


def check_sim_mode(sim_mode: str) -> None:
    """Reject a ``sim_mode`` outside :data:`SIM_MODES`."""
    if sim_mode not in SIM_MODES:
        raise ValueError(
            f"unknown sim mode {sim_mode!r}; expected one of {SIM_MODES}")


# ----------------------------------------------------------------------
# recorded reduction schedules
# ----------------------------------------------------------------------
#: Arrival-pattern byte codes: one byte per producer cycle.
PAT_BUBBLE, PAT_VALUE, PAT_LAST = 0, 1, 2


def back_to_back_pattern(sizes: Sequence[int]) -> bytes:
    """Arrival pattern of ``len(sizes)`` sets delivered back to back,
    one value per cycle — the pattern every dense kernel produces."""
    ends = np.cumsum(sizes, dtype=np.int64)
    codes = np.full(ends[-1] if len(ends) else 0, PAT_VALUE, dtype=np.uint8)
    codes[ends - 1] = PAT_LAST
    return codes.tobytes()


@dataclass(frozen=True)
class ReductionProgram:
    """One recorded association schedule of the reduction circuit.

    Nodes ``0..n_inputs-1`` are the streamed values in arrival order;
    nodes ``n_inputs..n_nodes-1`` are adder outputs in issue order.
    ``levels`` holds the additions grouped by dependency depth as
    ``(a, b, out)`` index arrays — every addition computes
    ``value[out] = value[a] + value[b]``, the exact operand order the
    circuit issued.  ``emits`` lists the completed sets in emission
    order as ``(set_id, root_node, cycle)``, and ``set_roots`` holds
    each set's root node indexed by set id (arrival order);
    ``flush_cycles`` is what :meth:`SingleAdderReduction.flush`
    returned past the pattern's end.
    """

    pattern: bytes
    alpha: int
    drain_policy: str
    n_inputs: int
    n_nodes: int
    levels: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    emits: Tuple[Tuple[int, int, int], ...]
    set_roots: np.ndarray
    flush_cycles: int

    @property
    def last_emit_cycle(self) -> int:
        """Cycle of the final emission (0 when nothing was streamed)."""
        return self.emits[-1][2] if self.emits else 0

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Replay the recorded schedule over real values, vectorized by
        dependency level.  Returns every set's sum, indexed by set id:
        bit for bit what the cycle-accurate circuit emits, since each
        addition keeps the circuit's operand order."""
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
        return vals[self.set_roots]


@lru_cache(maxsize=64)
def reduction_program(pattern: bytes, alpha: int = 14,
                      drain_policy: str = "most-work") -> ReductionProgram:
    """Record (once, then cached) the reduction schedule for one
    arrival pattern.

    The circuit's control flow is value-independent, so streaming the
    node ids ``0, 1, 2, …`` as float values with an instrumented adder
    ``op`` observes every association the circuit would perform on any
    data with this timing.  The recording pass is one
    :meth:`SingleAdderReduction.run` over the pattern's feed and one
    ``flush``, the loop cycle mode steps; every later call with the
    same ``(pattern, alpha, drain_policy)`` is a cache hit.
    """
    feed: List[FeedEntry] = []
    n_inputs = 0
    for code in pattern:
        if code == PAT_BUBBLE:
            feed.append(None)
        else:
            feed.append((float(n_inputs), code == PAT_LAST))
            n_inputs += 1
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
    consumed = circuit.run(feed)
    if consumed < len(feed):
        raise SimulationError(
            f"reduction stalled at input {int(feed[consumed][0])} while "
            f"recording a fast-mode schedule; the pattern violates the "
            f"circuit's stall-freedom envelope"
        )
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
    # Set ids number the sets 0, 1, … in arrival order.
    set_roots = np.array([root for _, root, _ in sorted(emits)],
                         dtype=np.int64)
    return ReductionProgram(
        pattern=pattern, alpha=alpha, drain_policy=drain_policy,
        n_inputs=n_inputs, n_nodes=next_id, levels=tuple(levels),
        emits=emits, set_roots=set_roots, flush_cycles=flush_cycles,
    )


# ----------------------------------------------------------------------
# the fast entry points BlasCall calls
# ----------------------------------------------------------------------
def fast_dot(design: Any, u: np.ndarray, v: np.ndarray) -> Any:
    """A :class:`~repro.blas.level1.DotProductDesign` run in fast mode."""
    return design.run(u, v, sim_mode="fast")


def fast_mvm(design: Any, A: np.ndarray, x: np.ndarray,
             block: Optional[int] = None) -> Any:
    """Either MVM design's run in fast mode, blocked when ``block`` is
    set."""
    return (design.run_blocked(A, x, block, sim_mode="fast") if block
            else design.run(A, x, sim_mode="fast"))


def fast_spmxv(design: Any, matrix: Any, x: np.ndarray) -> Any:
    """A :class:`~repro.sparse.spmxv.SpmxvDesign` run in fast mode."""
    return design.run(matrix, x, sim_mode="fast")


def fast_multi_fpga_mm(design: Any, A: np.ndarray, B: np.ndarray) -> Any:
    """A :class:`~repro.blas.multi_fpga.MultiFpgaMatrixMultiply` run,
    which has one path in both modes.  BlasCall still calls it in fast
    mode because the benchmark's layer census (``perfbench/layers.py``)
    wraps it and counts its calls as ``sim.fast``."""
    return design.run(A, B)
