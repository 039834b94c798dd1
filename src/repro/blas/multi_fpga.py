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

Cycle mode steps every m-block MAC of every FPGA into a b×b C′.  Fast
mode keeps C′ in small pieces as the FPGAs do: it folds each C^ij one
row band of ``_band_rows(b, m)`` rows (about ``_BAND_WORDS`` words, so
it stays in cache) at a time, each z-slab of the band as one matmul,
in the stepped loop's (q, z) order per cell, and counts the traffic
and the per-FPGA MACs in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.blas.level3 import MatrixMultiplyDesign
from repro.sim.engine import SimulationError
from repro.sim.fast import check_sim_mode


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


#: Words of C′ the fast gang folds at a time (1 MiB of float64).
_BAND_WORDS = 1 << 17


def _band_rows(b: int, m: int) -> int:
    """Rows of the C′ band the fast gang folds at a time: the largest
    multiple of m that divides b and keeps a b-wide band within
    ``_BAND_WORDS`` words, or m when even one block row is larger."""
    bm = b // m
    fit = max(1, _BAND_WORDS // (m * b))
    return m * max(d for d in range(1, min(bm, fit) + 1) if bm % d == 0)


@lru_cache(maxsize=16)
def _slab_matmul_consistent(b: int, m: int) -> bool:
    """Self-calibration: the gang fast path computes each z-slab of a
    C′ row band as one ``(rows×m) @ (m×b)`` matmul, ``rows =
    _band_rows(b, m)``, instead of ``(rows/m)·(b/m)`` separate ``m×m``
    matmuls.  Both are length-``m`` inner sums per output element, and
    every BLAS we have met accumulates them identically — but that is
    a library property, not a language guarantee, so we verify it once
    per geometry on deterministic noise, for exactly the band shape the
    fast path runs: every block product of the band in one batched
    matmul, one compare.  The gang steps its block products if it ever
    fails."""
    rows = _band_rows(b, m)
    a = np.sin(np.arange(rows * m, dtype=np.float64)).reshape(rows, m)
    w = np.cos(np.arange(m * b, dtype=np.float64)).reshape(m, b)
    band = np.matmul(a, w, out=np.empty((rows, b)))
    return np.array_equal(band, _block_products(a, w, m))


def _block_products(a: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """``a @ w`` assembled from its m×m block products ``a[g] @ w[h]``
    (g over the m-row blocks of ``a``, h over the m-column blocks of
    ``w``), all computed in one batched matmul."""
    rows, b = a.shape[0], w.shape[1]
    blocks = np.matmul(a.reshape(rows // m, 1, m, m),
                       w.reshape(m, b // m, m).transpose(1, 0, 2))
    return blocks.transpose(0, 2, 1, 3).reshape(rows, b)


def _fold_row_bands(A: np.ndarray, B: np.ndarray, b: int,
                    m: int) -> np.ndarray:
    """``A·B`` in the gang's fold order, one C′ row band at a time.

    Each C^ij is one contiguous b×b block, as it is one SRAM image on
    the array.  A band of ``_band_rows(b, m)`` of its rows stays in
    cache while every z-slab of it lands in one reused buffer and is
    added in.  The stepped loop walks q over the b-blocks and z over
    the m-columns of each, which is global z = 0, m, …, n − m, so each
    cell adds its slab products in the same order from +0.0.  With one
    b-block per side the returned C is that block itself, not a copy."""
    n = A.shape[0]
    nb = n // b
    rows = _band_rows(b, m)
    blocks = np.zeros((nb, nb, b, b))
    slab = np.empty((rows, b))
    for i in range(nb):
        for j in range(nb):
            b_cols = B[:, j * b:(j + 1) * b]
            for r in range(0, b, rows):
                band = blocks[i, j, r:r + rows]
                a_rows = A[i * b + r:i * b + r + rows]
                for z in range(0, n, m):
                    np.matmul(a_rows[:, z:z + m], b_cols[z:z + m],
                              out=slab)
                    band += slab
    return blocks.transpose(0, 2, 1, 3).reshape(n, n)


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
    def run(self, A: np.ndarray, B: np.ndarray,
            sim_mode: str = "cycle") -> MultiFpgaRun:
        """Simulate C = A·B on the FPGA array (n a multiple of b).

        Cycle mode steps every m-block MAC of every FPGA into a b×b C′.
        ``sim_mode="fast"`` folds each C^ij one cache-resident row band
        at a time (``_fold_row_bands``), each z-slab of a band as one
        matmul, in the same (q, z) accumulation order per cell, and
        counts the DRAM and link words and the per-FPGA MAC census in
        closed form; it steps instead when the band self-check
        (``_slab_matmul_consistent``) fails for this geometry.
        """
        check_sim_mode(sim_mode)
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
        block_cycles = self.block_mac_cycles()

        if sim_mode == "fast" and _slab_matmul_consistent(b, m):
            C = _fold_row_bands(A, B, b, m)
            # Per C^ij: nb pairs of b-blocks read, C^ij written back,
            # and every word traverses the whole array.
            dram_words = nb * nb * (2 * nb + 1) * b * b
            link_words = dram_words * (l - 1)
            # Each (i, j, q, z, g) reaches the h ≡ f (mod l) blocks.
            fpga_block_macs = [nb ** 3 * bm * bm * len(range(f, bm, l))
                               for f in range(l)]
        else:
            C, dram_words, link_words, fpga_block_macs = \
                self._step_block_macs(A, B)

        total_block_macs = sum(fpga_block_macs)
        # FPGAs run concurrently: each executes its share back to back.
        compute_cycles = max(fpga_block_macs) * block_cycles
        total = (compute_cycles
                 + self.array_latency_cycles()
                 + self.mm.startup_cycles()
                 + self.mm.drain_cycles()
                 + m * m)
        if total_block_macs != (n // m) ** 3:
            raise SimulationError("block MAC count mismatch")
        return MultiFpgaRun(
            C=C, n=n, b=b, m=m, k=k, l=l,
            total_cycles=total,
            compute_cycles=compute_cycles,
            dram_words=dram_words,
            link_words=link_words,
            sram_words_per_fpga=self.sram_words_needed,
            fpga_block_macs=fpga_block_macs,
        )

    def _step_block_macs(self, A: np.ndarray, B: np.ndarray
                         ) -> Tuple[np.ndarray, int, int, List[int]]:
        """Cycle mode: step every m-block MAC of every FPGA, folding
        each C^ij's C′ in a b×b SRAM image.  Returns C, the DRAM and
        link words and the per-FPGA MAC counts."""
        n = A.shape[0]
        b, m, l = self.b, self.m, self.l
        nb = n // b
        bm = b // m
        C = np.zeros((n, n))
        dram_words = 0
        link_words = 0
        fpga_block_macs = [0] * l
        for i in range(nb):
            for j in range(nb):
                # C^ij intermediate lives in SRAM, striped over FPGAs.
                c_big = np.zeros((b, b))
                for q in range(nb):
                    a_big = A[i * b:(i + 1) * b, q * b:(q + 1) * b]
                    b_big = B[q * b:(q + 1) * b, j * b:(j + 1) * b]
                    # A^iq column-major by m-blocks, B^qj row-major:
                    # FPGA_f owns m-block-columns h ≡ f (mod l).
                    for z in range(bm):
                        b_row = b_big[z * m:(z + 1) * m, :]
                        for g in range(bm):
                            a_blk = a_big[g * m:(g + 1) * m,
                                          z * m:(z + 1) * m]
                            for h in range(bm):
                                f = h % l
                                b_blk = b_row[:, h * m:(h + 1) * m]
                                # The MM unit's per-z accumulation,
                                # folded into SRAM C′ by the extra adder.
                                c_big[g * m:(g + 1) * m,
                                      h * m:(h + 1) * m] += a_blk @ b_blk
                                fpga_block_macs[f] += 1
                    # DRAM side: FPGA_0 reads both b-blocks once.
                    dram_words += 2 * b * b
                    # Every word of A and B traverses the whole array.
                    link_words += 2 * b * b * (l - 1)
                C[i * b:(i + 1) * b, j * b:(j + 1) * b] = c_big
                dram_words += b * b          # C written back
                link_words += b * b * (l - 1)  # C marches left
        return C, dram_words, link_words, fpga_block_macs
