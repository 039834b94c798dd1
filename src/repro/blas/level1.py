"""Level 1 BLAS: dot product on the tree architecture (Section 4.1).

Each clock cycle, ``k`` pipelined multipliers accept one element from
each input vector; a (k−1)-adder binary tree sums the k products; the
tree-root output stream — one partial sum per cycle, ``n/k`` values in
all — forms a single input set for the reduction circuit.

Both operations being I/O bound, the architecture's k is chosen to
match the available memory bandwidth (2k words/cycle); with unlimited
compute the peak performance equals the delivery bandwidth in words/s
(Section 4.4), and the design's efficiency is the ratio of useful
cycles to total cycles including the reduction flush.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.reduction.single_adder import SingleAdderReduction
from repro.sim.engine import SimulationError


def _tree_fold(values: List[float]) -> float:
    """Pairwise binary-tree sum (the adder tree's association order)."""
    while len(values) > 1:
        nxt = [values[i] + values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            nxt.append(values[-1])
        values = nxt
    return values[0]


def fold_columns(table: np.ndarray) -> np.ndarray:
    """Row-wise pairwise tree sum, replicating :func:`_tree_fold`'s
    association order (adjacent pairs per level, odd leftover carried)
    across all rows at once."""
    while table.shape[1] > 1:
        ncols = table.shape[1]
        nxt = table[:, 0:ncols - 1:2] + table[:, 1:ncols:2]
        if ncols % 2:
            nxt = np.concatenate([nxt, table[:, ncols - 1:]], axis=1)
        table = nxt
    return table[:, 0]


@dataclass
class DotProductRun:
    """Outcome of one simulated dot product."""

    result: float
    n: int
    k: int
    total_cycles: int
    input_cycles: int
    flops: int
    words_read: int

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.total_cycles

    @property
    def peak_flops_per_cycle(self) -> float:
        """I/O-bound peak: 2k flops per cycle at 2k words/cycle."""
        return 2 * self.k

    @property
    def efficiency(self) -> float:
        """Fraction of the I/O-bound peak achieved (Table 3's '% of
        Peak MFLOPS' row)."""
        return self.flops_per_cycle / self.peak_flops_per_cycle

    def sustained_mflops(self, clock_mhz: float) -> float:
        return self.flops_per_cycle * clock_mhz

    def memory_bandwidth_gbytes(self, clock_mhz: float,
                                word_bytes: int = 8) -> float:
        """Average input bandwidth over the run."""
        return (self.words_read * word_bytes * clock_mhz * 1e6
                / self.total_cycles / 1e9)


class DotProductDesign:
    """Cycle-accurate tree architecture for dot product.

    Parameters
    ----------
    k:
        Number of multipliers (Table 3 uses k=2 on the XD1, matching
        the 4-bank SRAM's 4 words/cycle).
    alpha_mul, alpha_add:
        Pipeline depths of the FP units (Table 2: 11 and 14).
    words_per_cycle:
        Memory-bandwidth throttle in 64-bit words per cycle; default
        2k (perfectly matched bandwidth).  Lower values stall input.
    """

    def __init__(self, k: int = 2, alpha_mul: int = 11, alpha_add: int = 14,
                 words_per_cycle: Optional[float] = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.alpha_mul = alpha_mul
        self.alpha_add = alpha_add
        self.tree_levels = max(0, math.ceil(math.log2(k))) if k > 1 else 0
        self.tree_latency = self.tree_levels * alpha_add
        self.words_per_cycle = words_per_cycle if words_per_cycle else 2.0 * k
        self.num_multipliers = k
        self.num_tree_adders = k - 1

    def tree_partials(self, u: np.ndarray,
                      v: np.ndarray) -> Tuple[int, np.ndarray]:
        """Validate ``u`` and ``v`` and return ``n`` and the tree-root
        value of every k-wide group: the k products, zero-padded past
        ``n``, folded in the adder tree's association order.  The
        multipliers and the tree hold no state across groups, so both
        sim modes compute these once per call."""
        u = np.asarray(u, dtype=np.float64).ravel()
        v = np.asarray(v, dtype=np.float64).ravel()
        if u.shape != v.shape:
            raise ValueError("vectors must have equal length")
        n = len(u)
        if n == 0:
            raise ValueError("vectors must be non-empty")
        k = self.k
        rows = math.ceil(n / k)
        products = np.zeros(rows * k)
        np.multiply(u, v, out=products[:n])
        return n, fold_columns(products.reshape(rows, k))

    def run(self, u: np.ndarray, v: np.ndarray) -> DotProductRun:
        """Simulate ``u · v`` cycle by cycle."""
        n, partials = self.tree_partials(u, v)
        k = self.k
        rows = len(partials)
        values = partials.tolist()

        # Lockstep pipelines: the k multipliers as one k-wide pipeline,
        # the adder tree as one pipeline of tree_latency cycles.  Each
        # slot carries the group's tree-root value and its last flag.
        mult_pipe: Deque[Optional[Tuple[float, bool]]] = deque(
            [None] * self.alpha_mul, maxlen=self.alpha_mul
        )
        tree_len = max(1, self.tree_latency)
        tree_pipe: Deque[Optional[Tuple[float, bool]]] = deque(
            [None] * tree_len, maxlen=tree_len
        )
        reduction = SingleAdderReduction(alpha=self.alpha_add)

        cycle = 0
        row = 0
        tokens = 0.0
        words_read = 0
        max_cycles = 50 * (rows + 1) * max(1, int(2 * k / self.words_per_cycle)) \
            + 100 * self.alpha_add ** 2 + 1000
        while not reduction.results:
            cycle += 1
            if cycle > max_cycles:
                raise SimulationError("dot product design failed to complete")
            tokens = min(tokens + self.words_per_cycle, 4 * k)

            # Tree root output feeds the reduction circuit.
            tree_out = tree_pipe.popleft()
            if tree_out is not None:
                value, last = tree_out
                accepted = reduction.cycle(value, last)
                if not accepted:
                    raise SimulationError(
                        "reduction circuit stalled the adder tree"
                    )
            else:
                reduction.cycle()

            # Multiplier outputs enter the adder tree.
            mult_out = mult_pipe.popleft()
            tree_pipe.append(mult_out)

            # Memory side: read k pairs and issue k multiplications.
            if row < rows and tokens >= 2 * k:
                tokens -= 2 * k
                words_read += 2 * k
                mult_pipe.append((values[row], row == rows - 1))
                row += 1
            else:
                mult_pipe.append(None)

        result = reduction.results[0]
        return DotProductRun(
            result=result.value,
            n=n,
            k=k,
            total_cycles=cycle,
            input_cycles=rows,
            flops=2 * n,
            words_read=words_read,
        )
