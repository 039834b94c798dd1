"""FPGA sparse matrix-vector multiply (the paper's [32] design).

The tree architecture of Section 4 extends directly to SpMXV: ``k``
multipliers read k nonzeros (value + column index) per cycle, fetch
the matching x elements from local storage, and the adder-tree root
stream feeds the reduction circuit.  The input sets are now the rows'
nonzero runs — *arbitrary, data-dependent sizes*, which is precisely
the workload the single-adder reduction circuit supports with no
assumption on the sparsity structure.

Rows with zero nonzeros bypass the datapath (y_i = 0 on the host
side).  Rows whose nonzero count is not a multiple of k leave bubbles
in some multiplier lanes on their last cycle (padding with zeros),
costing the utilization gap the paper's irregular-structure speedups
come from recovering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.blas.level1 import TreeDatapath, fold_columns
from repro.blas.run import KernelRun
from repro.sparse.csr import CsrMatrix


@dataclass
class SpmxvRun(KernelRun):
    """Outcome of one simulated sparse matrix-vector multiply.  Its
    words read are the values and column indices, as 64-bit words."""

    y: np.ndarray
    nrows: int
    nnz: int
    k: int
    total_cycles: int
    words_read: int
    #: Only input words are counted (a class attribute, not a field).
    words_written = 0

    @property
    def flops(self) -> int:
        """2 flops per nonzero (multiply + accumulate)."""
        return 2 * self.nnz


def chunk_partials(matrix: CsrMatrix, x: np.ndarray,
                   k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tree-root value of every k-wide nonzero chunk.

    Each non-empty row streams as ``ceil(nnz/k)`` chunks; a chunk's k
    products (missing lanes zero-padded, exactly as the datapath pads
    its multiplier lanes) are folded in the adder tree's association
    order.  Returns the non-empty rows' indices, their chunk counts and
    the chunk values in streaming order."""
    row_nnz = np.diff(matrix.row_ptr)
    nonempty = np.flatnonzero(row_nnz)
    sizes = -(-row_nnz[nonempty] // k)  # ceil per non-empty row
    products = matrix.values * x[matrix.col_indices]
    offsets = (np.arange(matrix.nnz, dtype=np.int64)
               - np.repeat(matrix.row_ptr[:-1], row_nnz))
    chunk_base = np.zeros(matrix.nrows, dtype=np.int64)
    chunk_base[nonempty] = np.cumsum(sizes) - sizes
    chunk_idx = np.repeat(chunk_base, row_nnz) + offsets // k
    table = np.zeros((int(sizes.sum()), k))
    table[chunk_idx, offsets % k] = products
    return nonempty, sizes, fold_columns(table)


class SpmxvDesign(TreeDatapath):
    """Tree-architecture SpMXV over CRS input."""

    def __init__(self, k: int = 4, alpha_mul: int = 11,
                 alpha_add: int = 14,
                 bram_words: Optional[int] = None) -> None:
        super().__init__(k, alpha_mul, alpha_add)
        self.bram_words = bram_words

    def tree_partials(self, matrix: CsrMatrix, x: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate ``x`` against the matrix and on-chip storage, then
        return :func:`chunk_partials`.  The multipliers and the tree
        hold no state across chunks, so both sim modes compute these
        once per call."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if len(x) != matrix.ncols:
            raise ValueError("dimension mismatch")
        if self.bram_words is not None and len(x) > self.bram_words:
            raise MemoryError(
                f"x of {len(x)} words exceeds on-chip storage of "
                f"{self.bram_words} words"
            )
        return chunk_partials(matrix, x, self.k)

    def run(self, matrix: CsrMatrix, x: np.ndarray,
            sim_mode: str = "cycle") -> SpmxvRun:
        """Simulate y = A·x.  Each non-empty row streams as one set of
        its chunks' tree-root values, and each chunk reads k (value,
        column) pairs; empty rows never enter the datapath."""
        nonempty, sizes, partials = self.tree_partials(matrix, x)
        values, cycles = self.stream(partials, sizes, sim_mode)
        # Sets are numbered in arrival order: the non-empty rows.
        y = np.zeros(matrix.nrows)
        y[nonempty] = values
        return SpmxvRun(y=y, nrows=matrix.nrows, nnz=matrix.nnz, k=self.k,
                        total_cycles=cycles,
                        words_read=2 * self.k * len(partials))
