"""Level 2 BLAS: matrix-vector multiply (Section 4.2).

Two architectures, selected by the storage order of A:

* **Row-major** (:class:`TreeMvmDesign`): n dot products on the tree
  architecture.  Multiplier p holds elements p, k+p, … of x in local
  storage; each cycle it reads one element of A and multiplies it with
  the matching x element.  The adder tree's root stream is fed to the
  reduction circuit as n sets of n/k values.  Because sets arrive back
  to back, the reduction flush amortizes and efficiency exceeds 95 %
  (Table 3).
* **Column-major** (:class:`ColumnMajorMvmDesign`): k multiplier+adder
  lanes.  Each cycle the k multipliers multiply k distinct elements of
  one column of A with the same element of x; adder p accumulates
  intermediate results of y elements p, k+p, … in its local storage.
  A given y element is touched every n/k cycles, so the design is
  hazard-free exactly when n/k covers the adder pipeline depth — the
  simulator enforces this with an explicit in-flight check.

Both designs support block decomposition when the vector exceeds
on-chip memory (b-word blocks), with the extra external traffic
accounted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.blas.level1 import TreeDatapath, fold_columns
from repro.blas.run import KernelRun
from repro.sim.engine import SimulationError
from repro.sim.fast import check_sim_mode


class MvmHazardError(SimulationError):
    """A y-element was read while its previous update was in flight."""


@dataclass
class MvmRun(KernelRun):
    """Outcome of one simulated matrix-vector multiply.  Its peak is
    I/O-bound: 2 flops per delivered word of A (Section 4.4's
    ``2·bw``), at k words of A per cycle."""

    y: np.ndarray
    n: int
    k: int
    total_cycles: int
    flops: int
    words_read: int
    words_written: int
    architecture: str
    blocks: int = 1


def _matrix_operands(A: np.ndarray,
                     x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``A`` and ``x`` as float64, checked for a non-empty A whose
    columns match x."""
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    nrows, ncols = A.shape
    if nrows == 0 or ncols == 0:
        raise ValueError("matrix dimensions must be positive")
    if ncols != len(x):
        raise ValueError("dimension mismatch")
    return A, x


class TreeMvmDesign(TreeDatapath):
    """Row-major MVM: tree architecture + reduction circuit."""

    def __init__(self, k: int = 4, alpha_mul: int = 11, alpha_add: int = 14,
                 bram_words: Optional[int] = None) -> None:
        super().__init__(k, alpha_mul, alpha_add)
        self.bram_words = bram_words

    def _check_local_storage(self, nwords: int) -> None:
        if self.bram_words is not None and nwords > self.bram_words:
            raise MemoryError(
                f"vector block of {nwords} words exceeds on-chip storage "
                f"of {self.bram_words} words; use run_blocked()"
            )

    def tree_partials(self, A: np.ndarray,
                      x: np.ndarray) -> Tuple[int, np.ndarray]:
        """Validate ``A`` and ``x`` and return ``ncols`` and the
        (nrows × n/k) tree-root values: per row, each k-wide group's
        products, zero-padded past ``ncols``, folded in the adder
        tree's association order.  The multipliers and the tree hold no
        state across groups, so both sim modes compute these once per
        call."""
        A, x = _matrix_operands(A, x)
        nrows, ncols = A.shape
        self._check_local_storage(len(x))
        k = self.k
        groups = math.ceil(ncols / k)
        products = np.zeros((nrows, groups * k))
        np.multiply(A, x, out=products[:, :ncols])
        partials = fold_columns(products.reshape(nrows * groups, k))
        return ncols, partials.reshape(nrows, groups)

    def run(self, A: np.ndarray, x: np.ndarray,
            sim_mode: str = "cycle") -> MvmRun:
        """Simulate y = A·x with x resident in local storage: each row
        is one set of n/k tree-root values, and the k multipliers read
        only A from memory."""
        ncols, partials = self.tree_partials(A, x)
        nrows, groups = partials.shape
        y, cycles = self.stream(partials.ravel(), (groups,) * nrows,
                                sim_mode)
        return MvmRun(y=y, n=max(nrows, ncols), k=self.k,
                      total_cycles=cycles, flops=2 * nrows * ncols,
                      words_read=nrows * groups * self.k,
                      words_written=nrows, architecture="tree")

    def run_blocked(self, A: np.ndarray, x: np.ndarray, b: int,
                    sim_mode: str = "cycle") -> MvmRun:
        """Block MVM for x too large for on-chip memory.

        A is partitioned into column blocks of width b; each x block is
        loaded to local storage and multiplied with its A block.  The
        partial y vectors are accumulated externally (by the host
        processor), costing one read + one write of y per block beyond
        the first — counted in the traffic totals.
        """
        A, x = _matrix_operands(A, x)
        nrows, ncols = A.shape
        if b < 1:
            raise ValueError("block width must be positive")
        self._check_local_storage(min(b, ncols))
        nblocks = math.ceil(ncols / b)
        y = np.zeros(nrows)
        cycles = 0
        words_read = 0
        words_written = 0
        for blk in range(nblocks):
            lo, hi = blk * b, min((blk + 1) * b, ncols)
            sub = self.run(A[:, lo:hi], x[lo:hi], sim_mode=sim_mode)
            cycles += sub.total_cycles
            words_read += sub.words_read + (hi - lo)  # + x block load
            words_written += nrows
            if blk > 0:
                words_read += nrows  # host reads previous partial y
            y += sub.y
        return MvmRun(y=y, n=max(nrows, ncols), k=self.k,
                      total_cycles=cycles, flops=2 * nrows * ncols,
                      words_read=words_read, words_written=words_written,
                      architecture="tree-blocked", blocks=nblocks)


class ColumnMajorMvmDesign:
    """Column-major MVM: k multiplier+adder lanes with striped
    intermediate-y storage."""

    def __init__(self, k: int = 4, alpha_mul: int = 11, alpha_add: int = 14,
                 bram_words: Optional[int] = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.alpha_mul = alpha_mul
        self.alpha_add = alpha_add
        self.bram_words = bram_words

    def cycles(self, nrows: int, ncols: int) -> int:
        """Cycles of a hazard-free nrows×ncols multiply: ⌈nrows/k⌉
        groups per column issued back to back, plus the multiplier and
        adder pipelines."""
        return (ncols * math.ceil(nrows / self.k)
                + self.alpha_mul + self.alpha_add)

    def check_hazards(self, nrows: int, ncols: int,
                      block: Optional[int] = None) -> None:
        """Raise :class:`MvmHazardError` when an nrows×ncols multiply,
        or one of its row blocks of height ``block`` (the last one
        possibly shorter), would read a y row while its previous update
        is in the adder — the hazard condition of Section 4.2.

        The stepped loop's first re-touch of a y row happens at cycle
        groups + 1, groups = ⌈rows/k⌉, while its previous update lands
        at 1 + alpha_add; landing pops run before the check, so
        groups == alpha_add is forwarded and only groups < alpha_add
        faults, and only when a second column re-touches the row.
        """
        heights = (nrows,) if not block else (min(block, nrows),
                                              nrows % block)
        for rows in heights:
            groups = math.ceil(rows / self.k)
            if ncols >= 2 and 0 < groups < self.alpha_add:
                raise MvmHazardError(
                    f"row 0 updated at cycle {groups + 1} while its "
                    f"previous update lands at cycle {1 + self.alpha_add}; "
                    f"n/k = {groups} <= adder depth {self.alpha_add}"
                )

    def run(self, A: np.ndarray, x: np.ndarray,
            sim_mode: str = "cycle") -> MvmRun:
        """Simulate y = A·x reading A in column-major order.

        Raises :class:`MvmHazardError` when n/k is smaller than the
        adder pipeline depth — the hazard condition of Section 4.2.
        ``sim_mode="fast"`` checks that condition in closed form
        (:meth:`check_hazards`) and accumulates the columns as one
        sweep, in the stepped loop's per-element operand order.
        """
        check_sim_mode(sim_mode)
        A, x = _matrix_operands(A, x)
        nrows, ncols = A.shape
        if self.bram_words is not None and nrows > self.bram_words:
            raise MemoryError(
                f"intermediate y of {nrows} words exceeds on-chip storage; "
                f"use run_blocked()"
            )
        k = self.k
        groups = math.ceil(nrows / k)
        padded_rows = groups * k
        if nrows % k:
            A = np.vstack([A, np.zeros((padded_rows - nrows, ncols))])
        # y intermediate storage, striped: lane p owns rows p, k+p, …
        y = np.zeros(padded_rows)

        if sim_mode == "fast":
            self.check_hazards(nrows, ncols)
            # Hazard-freedom means every update landed before the next
            # touch, so the accumulation is a plain per-column sweep.
            for col in range(ncols):
                y += A[:, col] * x[col]
            cycle = self.cycles(nrows, ncols)
        else:
            # In-flight adder updates: per row slot, the landing cycle.
            inflight: dict = {}
            # Pipeline of pending updates: (land_cycle, rows, values)
            add_pipe: Deque[Tuple[int, np.ndarray, np.ndarray]] = deque()
            cycle = 0
            for step in range(ncols * groups):
                cycle += 1
                # Land updates whose pipelines completed (forwarding:
                # land before this cycle's issue reads).
                while add_pipe and add_pipe[0][0] <= cycle:
                    _, rows_idx, vals = add_pipe.popleft()
                    y[rows_idx] = vals
                    for r in rows_idx:
                        inflight.pop(int(r), None)

                col, group = divmod(step, groups)
                rows_idx = np.arange(group * k, group * k + k)
                for r in rows_idx:
                    if int(r) in inflight:
                        raise MvmHazardError(
                            f"row {int(r)} updated at cycle {cycle} while "
                            f"its previous update lands at cycle "
                            f"{inflight[int(r)]}; n/k = {groups} <= adder "
                            f"depth {self.alpha_add}"
                        )
                products = A[rows_idx, col] * x[col]
                new_vals = y[rows_idx] + products
                land = cycle + self.alpha_add
                add_pipe.append((land, rows_idx, new_vals))
                for r in rows_idx:
                    inflight[int(r)] = land

            # Drain the pipelines.
            while add_pipe:
                land, rows_idx, vals = add_pipe.popleft()
                cycle = max(cycle, land)
                y[rows_idx] = vals
            cycle += self.alpha_mul  # multiplier fill at the start

        # k A elements per cycle; each x element is read once, with
        # its column's first group.
        return MvmRun(y=y[:nrows], n=max(nrows, ncols), k=k,
                      total_cycles=cycle, flops=2 * nrows * ncols,
                      words_read=ncols * groups * k + ncols,
                      words_written=nrows, architecture="column-major")

    def run_blocked(self, A: np.ndarray, x: np.ndarray, b: int,
                    sim_mode: str = "cycle") -> MvmRun:
        """Block MVM for y too large for on-chip memory: row blocks of
        height b, each streamed column-major against the full x."""
        A, x = _matrix_operands(A, x)
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
            sub = self.run(A[lo:hi, :], x, sim_mode=sim_mode)
            parts.append(sub.y)
            cycles += sub.total_cycles
            words_read += sub.words_read
            words_written += sub.words_written
        return MvmRun(y=np.concatenate(parts), n=max(nrows, ncols),
                      k=self.k, total_cycles=cycles,
                      flops=2 * nrows * ncols, words_read=words_read,
                      words_written=words_written,
                      architecture="column-major-blocked", blocks=nblocks)
