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

:class:`TreeDatapath` is that architecture; row-major MVM, SpMXV and
asum run on it too, each with its own front end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.blas.run import KernelRun
from repro.reduction.single_adder import FeedEntry, SingleAdderReduction
from repro.sim.engine import SimulationError
from repro.sim.fast import (back_to_back_pattern, check_sim_mode,
                             reduction_program)


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
class DotProductRun(KernelRun):
    """Outcome of one simulated dot product."""

    result: float
    n: int
    k: int
    total_cycles: int
    input_cycles: int
    flops: int
    words_read: int
    #: Only input words are counted (a class attribute, not a field).
    words_written = 0


class TreeDatapath:
    """The tree architecture of Sections 4.1–4.3: k pipelined
    multipliers, a (k−1)-adder binary tree and the single-adder
    reduction circuit.

    Dot product, row-major MVM, SpMXV and asum run on it.  Each design
    keeps its own front end, which computes the tree-root value of
    every k-wide group once per call (the multipliers and the tree hold
    no state across groups), and its own result assembly; the stateful
    part — delay lines, memory throttle, reduction circuit — is
    :meth:`stream`, once for all four.
    """

    def __init__(self, k: int, alpha_mul: int = 11,
                 alpha_add: int = 14) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.alpha_mul = alpha_mul
        self.alpha_add = alpha_add
        self.tree_levels = max(0, math.ceil(math.log2(k))) if k > 1 else 0
        self.tree_latency = self.tree_levels * alpha_add

    def stream(self, partials: np.ndarray, sizes: Sequence[int],
               sim_mode: str = "cycle",
               words_per_cycle: Optional[float] = None
               ) -> Tuple[np.ndarray, int]:
        """Run the tree-root values, one k-wide group per cycle, into
        the reduction circuit as back-to-back sets of ``sizes`` values.

        Returns the sets' sums as one float64 array indexed by set id
        (arrival order), and the cycle the last set emits.  Each value
        passes the multiplier pipeline and the adder tree — one delay
        line of ``alpha_mul + max(1, tree_latency)`` stages, since two
        chained FIFOs delay like one of the summed length.
        ``words_per_cycle`` throttles issue through a token counter
        capped at 4k: each group reads 2k words (the dot product's
        memory system).

        ``sim_mode="cycle"`` steps the circuit through the whole feed in
        one :meth:`SingleAdderReduction.run` and one ``flush``, and fills
        the array from its results.  ``"fast"`` replays the reduction
        circuit's recorded schedule when issue is back to back, which
        gathers the array in one index, and steps otherwise.
        """
        check_sim_mode(sim_mode)
        if not len(sizes):
            return np.empty(0), 0
        k = self.k
        delay = self.alpha_mul + max(1, self.tree_latency)
        rate = 2.0 * k if words_per_cycle is None else words_per_cycle
        throttled = rate < 2 * k
        if sim_mode == "fast" and not throttled:
            program = reduction_program(back_to_back_pattern(sizes),
                                        self.alpha_add)
            return program.apply(partials), program.last_emit_cycle + delay

        closes = np.zeros(len(partials), dtype=bool)
        closes[np.cumsum(sizes) - 1] = True
        items = zip(partials.tolist(), closes.tolist())
        slowdown = max(1, math.ceil(2 * k / rate)) if throttled else 1
        max_cycles = (delay + 4 * len(partials) * slowdown
                      + 100 * self.alpha_add ** 2 + 1000)
        # What reaches the reduction circuit each cycle, as (tree-root
        # value, closes its set) or None: nothing while the first group
        # crosses the delay line, then one group per issue cycle.
        feed: List[FeedEntry] = [None] * delay
        if throttled:
            # The counter starts each cycle under 2k words, so it never
            # reaches its 4k cap.
            tokens = 0.0
            for entry in items:
                tokens += rate
                while tokens < 2 * k:
                    if len(feed) > max_cycles:
                        raise SimulationError(
                            "tree datapath failed to complete")
                    feed.append(None)
                    tokens += rate
                tokens -= 2 * k
                feed.append(entry)
        else:
            feed.extend(items)

        reduction = SingleAdderReduction(alpha=self.alpha_add)
        if reduction.run(feed) < len(feed):
            raise SimulationError(
                "reduction circuit stalled the adder tree"
            )
        # The last set closes with the last value fed; its flush
        # finishes the run.
        try:
            cycle = len(feed) + reduction.flush(max_cycles - len(feed))
        except SimulationError as exc:
            raise SimulationError("tree datapath failed to complete") from exc
        values = np.empty(len(sizes))
        for res in reduction.results:
            values[res.set_id] = res.value
        return values, cycle


class DotProductDesign(TreeDatapath):
    """Tree architecture for dot product.

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
        super().__init__(k, alpha_mul, alpha_add)
        self.words_per_cycle = words_per_cycle if words_per_cycle else 2.0 * k

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

    def run(self, u: np.ndarray, v: np.ndarray,
            sim_mode: str = "cycle") -> DotProductRun:
        """Simulate ``u · v``: the tree-root partials form one set."""
        n, partials = self.tree_partials(u, v)
        rows = len(partials)
        values, cycles = self.stream(partials, (rows,), sim_mode,
                                     words_per_cycle=self.words_per_cycle)
        return DotProductRun(
            result=float(values[0]),
            n=n,
            k=self.k,
            total_cycles=cycles,
            input_cycles=rows,
            flops=2 * n,
            words_read=rows * 2 * self.k,
        )
