"""Matrix multiply on multiple FPGAs (Section 5.2, Figure 8).

The single-node linear PE array generalizes one level up: ``l`` FPGAs
form a linear array in which every *element* of the Section 5.1 design
becomes an m×m *block*:

* Matrices are partitioned into b×b blocks (2b² words of SRAM across
  the array), each further split into m×m blocks for the on-chip MM
  unit.
* FPGA_0 reads A and B from the DRAM of its node's processor; blocks
  stream down the array; completed C blocks stream back left and are
  written to the same DRAM.
* FPGA_f stores the B m-block-columns h ≡ f (mod l) of the current
  B^qj in on-chip memory (double-buffered, 2bm/l words — the paper
  prints this as "2b/l" eliding the block height m), and accumulates
  the matching C′ m-blocks of C^ij in its SRAM (b²/l words of C′ and
  b²/l of C storage).
* Each FPGA's MM unit multiplies passing A blocks against its stored
  B blocks; an extra FP adder folds the MM result into the SRAM-held
  C′ intermediate.

Reproduced claims: effective latency n³/(k·l) cycles; DRAM I/O
Θ(n³/b) (the I/O lower bound for internal memory 2b²); DRAM and
inter-FPGA bandwidth 3kl/b words/cycle; per-FPGA SRAM bandwidth
2k/m + 2k/b words/cycle.

Each C cell is summed in the array's order: an MM unit sums every
m-wide block of z from +0.0 in z order, and the extra adder folds the
block sums into C′ from +0.0 in block order, each product and each add
rounded once (the multipliers and adders are separate units, Table 2).
One compiled kernel computes that sum (:mod:`repro.blas.exact_gemm`,
with block width m); without a C compiler
:func:`repro.blas.level3.sweep` computes it in NumPy, with the same
bits.  The traffic, the per-FPGA MAC census and the cycles are closed
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.blas.level3 import MatrixMultiplyDesign, exact_product


@dataclass
class MultiFpgaRun:
    """Outcome of one simulated multi-FPGA matrix multiply."""

    C: np.ndarray
    n: int
    b: int
    m: int
    k: int
    l: int
    total_cycles: int
    compute_cycles: int
    dram_words: int
    link_words: int
    sram_words_per_fpga: int
    #: per-FPGA count of m-block MACs executed (load balance evidence)
    fpga_block_macs: Optional[List[int]] = None

    @property
    def flops(self) -> int:
        return 2 * self.n ** 3

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.total_cycles

    @property
    def peak_flops_per_cycle(self) -> float:
        """2 flops per PE per cycle across k·l PEs."""
        return 2 * self.k * self.l

    @property
    def efficiency(self) -> float:
        return self.flops_per_cycle / self.peak_flops_per_cycle

    def sustained_gflops(self, clock_mhz: float) -> float:
        return self.flops_per_cycle * clock_mhz / 1000.0

    def dram_bandwidth_mbytes(self, clock_mhz: float,
                              word_bytes: int = 8) -> float:
        return (self.dram_words * word_bytes * clock_mhz * 1e6
                / self.total_cycles / 1e6)


class MultiFpgaMatrixMultiply:
    """The hierarchical matrix multiply across a linear FPGA array."""

    def __init__(self, l: int = 6, k: int = 8, m: int = 8, b: int = 512,
                 alpha_mul: int = 11, alpha_add: int = 14,
                 sram_words_per_fpga: Optional[int] = None) -> None:
        if l < 1:
            raise ValueError("need at least one FPGA")
        if b % m:
            raise ValueError("b must be a multiple of m")
        if l > b // m:
            raise ValueError(
                "more FPGAs than B block-columns: some would be idle")
        self.l = l
        self.k = k
        self.m = m
        self.b = b
        self.alpha_mul = alpha_mul
        self.alpha_add = alpha_add
        # Hazard check relaxed: on one FPGA, consecutive m-block MACs
        # target different C blocks (distinct h), so same-cell C′
        # updates are a full block-sweep apart (see level3 docstring).
        self.mm = MatrixMultiplyDesign(k=k, m=m, alpha_mul=alpha_mul,
                                       alpha_add=alpha_add,
                                       relax_hazard_check=True)
        # C′ and C storage per FPGA, in SRAM (Section 5.2).
        self.sram_words_needed = 2 * b * b // l
        if (sram_words_per_fpga is not None
                and self.sram_words_needed > sram_words_per_fpga):
            raise MemoryError(
                f"C'/C storage of {self.sram_words_needed} words exceeds "
                f"the {sram_words_per_fpga}-word SRAM of one FPGA"
            )

    # -- analytical requirements (Section 6.4) --------------------------
    def block_mac_cycles(self) -> int:
        """One m-block MAC on one FPGA's MM unit: m³/k cycles."""
        return self.m ** 3 // self.k

    def dram_words_per_cycle(self) -> float:
        """DRAM (and per-link) requirement: 3 m-blocks every
        m²b/(k·l) cycles = 3kl/b words/cycle."""
        return 3.0 * self.k * self.l / self.b

    def sram_words_per_cycle(self) -> float:
        """Per-FPGA SRAM requirement: C′ read+write (2k/m) plus C
        storage block swaps (2k/b)."""
        return 2.0 * self.k / self.m + 2.0 * self.k / self.b

    def array_latency_cycles(self) -> int:
        """Extra latency from elements traversing all PEs: k·l cycles
        (Section 6.4.1: 48 for one chassis, 576 for 12 chassis)."""
        return self.k * self.l

    def effective_cycles(self, n: int) -> int:
        """Effective latency for n×n: n³/(k·l) cycles (Section 5.2)."""
        return n ** 3 // (self.k * self.l)

    # -------------------------------------------------------------------
    def run(self, A: np.ndarray, B: np.ndarray) -> MultiFpgaRun:
        """Simulate C = A·B on the FPGA array (n a multiple of b).

        Each C cell sums its products in the array's order: every
        m-wide block of z from +0.0 in z order (one MM unit's block
        MAC), the block sums folded into C′ from +0.0 in block order
        (the extra adder), computed by
        :func:`repro.blas.level3.exact_product`.  The DRAM and link
        words and the per-FPGA block-MAC census are closed forms."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.ndim != 2 or A.shape != B.shape or A.shape[0] != A.shape[1]:
            raise ValueError("A and B must be equal square matrices")
        n = A.shape[0]
        b, m, k, l = self.b, self.m, self.k, self.l
        if n % b:
            raise ValueError(f"n = {n} must be a multiple of b = {b}")
        nb = n // b      # b-blocks per dimension
        bm = b // m      # m-blocks per b-block dimension
        # Per C^ij: nb pairs of b-blocks read, C^ij written back, and
        # every word traverses the whole array.
        dram_words = nb * nb * (2 * nb + 1) * b * b
        # A^iq is read column-major by m-blocks and B^qj row-major:
        # each (i, j, q, z, g) reaches FPGA_f's blocks h ≡ f (mod l).
        fpga_block_macs = [nb ** 3 * bm * bm * len(range(f, bm, l))
                           for f in range(l)]
        # FPGAs run concurrently: each executes its share back to back.
        compute_cycles = max(fpga_block_macs) * self.block_mac_cycles()
        total = (compute_cycles
                 + self.array_latency_cycles()
                 + self.mm.startup_cycles()
                 + self.mm.drain_cycles()
                 + m * m)
        return MultiFpgaRun(
            C=exact_product(A, B, m), n=n, b=b, m=m, k=k, l=l,
            total_cycles=total,
            compute_cycles=compute_cycles,
            dram_words=dram_words,
            link_words=dram_words * (l - 1),
            sram_words_per_fpga=self.sram_words_needed,
            fpga_block_macs=fpga_block_macs,
        )
