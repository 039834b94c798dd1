"""Blocked LU factorization with FPGA trailing updates.

LINPACK-style right-looking LU with partial pivoting, blocked at width
``nb``.  The O(n²) panel factorization and triangular solves run on
the host processor (the "control-intensive part"); the O(n³)
trailing-matrix update ``A22 -= A21 · A12`` runs on the Level-3 matrix
multiply PE array (the "computation-intensive part") — exactly the
processor/FPGA partitioning the paper's Section 1 prescribes.

The PE array multiplies square m-multiple blocks: it zero-pads each
trailing update to its order itself and charges the padded cycles and
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.blas.level3 import MatrixMultiplyDesign


@dataclass
class LuResult:
    """Outcome of a blocked LU factorization."""

    lu: np.ndarray           # packed L\U factors
    pivots: np.ndarray       # row permutation (pivot indices)
    n: int
    block: int
    fpga_cycles: int         # trailing-update cycles on the PE array
    host_flops: int          # panel + triangular-solve flops (host)
    fpga_flops: int          # trailing-update flops (FPGA)

    def reconstruct(self) -> np.ndarray:
        """P·A rebuilt from the packed factors (for verification)."""
        L = np.tril(self.lu, -1) + np.eye(self.n)
        U = np.triu(self.lu)
        return L @ U

    @property
    def fpga_fraction(self) -> float:
        """Fraction of the flops offloaded to the FPGA."""
        total = self.host_flops + self.fpga_flops
        return self.fpga_flops / total if total else 0.0


class BlockedLu:
    """Right-looking blocked LU with FPGA trailing updates."""

    def __init__(self, block: int = 16, k: int = 4, m: int = 8,
                 mm_design: Optional[MatrixMultiplyDesign] = None) -> None:
        if block < 1:
            raise ValueError("block width must be positive")
        self.block = block
        self.mm = mm_design if mm_design is not None else \
            MatrixMultiplyDesign(k=k, m=m, relax_hazard_check=True)

    # ------------------------------------------------------------------
    def _fpga_gemm_update(self, A21: np.ndarray, A12: np.ndarray
                          ) -> Tuple[np.ndarray, int]:
        """Compute A21 · A12 on the PE array.  The array zero-pads the
        operands to its order (a square m-multiple) itself, so the
        cycles include the fringe's padding work."""
        run = self.mm.run(A21, A12)
        return run.C, run.total_cycles

    def factor(self, A: np.ndarray) -> LuResult:
        """Factor P·A = L·U (partial pivoting)."""
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("LU needs a square matrix")
        n = A.shape[0]
        lu = A.copy()
        pivots = np.arange(n)
        nb = self.block
        fpga_cycles = 0
        host_flops = 0
        fpga_flops = 0

        for j0 in range(0, n, nb):
            j1 = min(j0 + nb, n)
            # --- host: panel factorization with partial pivoting ---
            for j in range(j0, j1):
                p = j + int(np.argmax(np.abs(lu[j:, j])))
                if lu[p, j] == 0.0:
                    raise np.linalg.LinAlgError(
                        f"matrix is singular at column {j}")
                if p != j:
                    lu[[j, p], :] = lu[[p, j], :]
                    pivots[[j, p]] = pivots[[p, j]]
                lu[j + 1:, j] /= lu[j, j]
                if j + 1 < j1:
                    lu[j + 1:, j + 1:j1] -= np.outer(lu[j + 1:, j],
                                                     lu[j, j + 1:j1])
                host_flops += 2 * (n - j - 1) * (j1 - j)
            if j1 == n:
                break
            # --- host: triangular solve for the row block U12 ---
            L11 = np.tril(lu[j0:j1, j0:j1], -1) + np.eye(j1 - j0)
            lu[j0:j1, j1:] = np.linalg.solve(L11, lu[j0:j1, j1:])
            host_flops += (j1 - j0) ** 2 * (n - j1)
            # --- FPGA: trailing update A22 -= L21 · U12 ---
            update, cycles = self._fpga_gemm_update(lu[j1:, j0:j1],
                                                    lu[j0:j1, j1:])
            lu[j1:, j1:] -= update
            fpga_cycles += cycles
            fpga_flops += 2 * (n - j1) * (j1 - j0) * (n - j1)

        return LuResult(lu=lu, pivots=pivots, n=n, block=nb,
                        fpga_cycles=fpga_cycles, host_flops=host_flops,
                        fpga_flops=fpga_flops)

    # ------------------------------------------------------------------
    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve A·x = b via the blocked factorization."""
        b = np.asarray(b, dtype=np.float64).ravel()
        result = self.factor(A)
        if len(b) != result.n:
            raise ValueError("dimension mismatch")
        pb = b[result.pivots]
        L = np.tril(result.lu, -1) + np.eye(result.n)
        U = np.triu(result.lu)
        y = np.linalg.solve(L, pb)       # host forward substitution
        return np.linalg.solve(U, y)     # host backward substitution
