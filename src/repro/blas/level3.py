"""Level 3 BLAS: dense matrix multiply on a linear PE array (Section 5.1).

``k`` processing elements (PEs) are connected in a linear array; each
PE has one FP multiplier, one FP adder, ``2m/k`` B-registers (double
buffered), and two local stores of ``m²/k`` words (C′ intermediate and
C final).  The design performs block multiplies of size m×m where
``m = √(M/2)`` for on-chip memory M:

* For block product A^gz·B^zh, A is read column-major and B row-major.
* PE_p owns columns p, k+p, … of the C block.
* Row z of B streams down the array and is captured into B-registers;
  then each element of column z of A enters the array every m/k cycles
  and, while resident in a PE, multiplies against the PE's m/k stored
  B elements (one per cycle), accumulating into C′.
* Each C′ cell is touched once per z step, i.e. every m²/k cycles, so
  the accumulation is hazard-free whenever m²/k covers the adder
  pipeline (checked).
* Completed C blocks stream left through the C stores, overlapped with
  the next block's compute.

Claims reproduced by the simulator: effective latency n³/k cycles,
storage 2m² words, bandwidth 3k/m words/cycle, I/O complexity
Θ(n³/m) — the Hong-Kung lower bound for internal memory 2m².

The array owns the zero padding: ``run`` takes A (p×q) and B (q×r) as
a call gives them and works at order n = m·⌈max(p, q, r)/m⌉, the order
the host pads to, so every cycle and traffic counter is the padded
array's, in closed form.  Each C′ cell adds its products in z order,
starting from +0.0, each product and each add rounded once (the PE's
multiplier and adder are separate units, Table 2).  The default run
computes that sum on the p×r result with :func:`exact_product`: one
compiled C function, :mod:`repro.blas.exact_gemm`, which keeps a tile
of sums in vector registers and is built once per host, and which the
multi-FPGA array (:mod:`repro.blas.multi_fpga`) runs with blocks of m.
Without a C compiler it runs :func:`sweep`, the same sum in NumPy and
the kernel's reference: a rank-1 sweep ``C += A[:, z] ⊗ B[z, :]`` over
z < q that forms the products of ``_BLOCK_WORDS // (p·r)`` z-steps at
a time with one ``einsum`` (no summed index, no BLAS call) and adds
them into C one z at a time, in order.  Both give the padded array's
bits exactly:

* each product is one rounding of a·b (a fused a·b + 0 rounds the
  same), and only the sign of an exact-zero product can differ;
* a padded term is +0.0·+0.0, and a sum that starts from +0.0 is never
  −0.0, so adding a signed zero never changes it, even when the data
  holds inf or NaN; padded rows and columns of C are never observed.

Neither FMA nor a library's summation order reaches the bits; only the
payload of a NaN cell can differ between the two paths, when the
operands hold distinct NaN payloads.  ``strict`` mode pads to n×n and
keeps the per-cycle replay: every MAC of every block product at its
scheduled cycle, with per-cell hazard tracking (cross-validated against
the default run in the test suite), and returns C cropped to p×r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.blas import exact_gemm
from repro.sim.engine import SimulationError


#: Words of rank-1 products the sweep forms per einsum (1 MiB of
#: float64).
_BLOCK_WORDS = 1 << 17


def sweep(A: np.ndarray, B: np.ndarray,
          block: Optional[int] = None) -> np.ndarray:
    """C = A·B for float64 A p×q and B q×r, summed in the arrays'
    order: each ``block``-wide run of z (all of z when ``block`` is
    None) summed from +0.0 in z order, and the block sums folded into
    +0.0 in block order.  A block is summed by the rank-1 updates
    ``C += A[:, z] ⊗ B[z, :]``, with the products of ``_BLOCK_WORDS //
    (p·r)`` z-steps formed by one einsum into a reused buffer.  The
    compiled kernel's reference and the path taken without a C
    compiler."""
    (p, q), r = A.shape, B.shape[1]
    if block is not None and block < 1:
        raise ValueError(f"block must be positive, not {block}")
    C = np.zeros((p, r))
    if block is not None and block < q:
        for z0 in range(0, q, block):
            C += sweep(A[:, z0:z0 + block], B[z0:z0 + block])
        return C
    steps = max(1, _BLOCK_WORDS // max(1, p * r))
    products = np.empty((min(steps, q), p, r))
    for z0 in range(0, q, steps):
        chunk = products[:min(steps, q - z0)]
        np.einsum("iz,zj->zij", A[:, z0:z0 + steps], B[z0:z0 + steps],
                  out=chunk)
        for product in chunk:
            C += product
    return C


def exact_product(A: np.ndarray, B: np.ndarray,
                  block: Optional[int] = None) -> np.ndarray:
    """:func:`sweep`'s sum computed by the compiled
    :func:`repro.blas.exact_gemm.kernel`, or by :func:`sweep` itself
    when no kernel could be built: the same bits either way."""
    gemm = exact_gemm.kernel()
    return sweep(A, B, block) if gemm is None else gemm(A, B, block)


class MmHazardError(SimulationError):
    """A C′ cell was updated while its previous update was in flight."""


@dataclass
class MatrixMultiplyRun:
    """Outcome of one simulated matrix multiply."""

    C: np.ndarray
    n: int
    m: int
    k: int
    total_cycles: int
    compute_cycles: int
    words_read: int
    words_written: int
    storage_words: int

    @property
    def flops(self) -> int:
        return 2 * self.n ** 3

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.total_cycles

    @property
    def peak_flops_per_cycle(self) -> float:
        """Compute-bound peak: each PE does one multiply + one add per
        cycle, so 2k flops/cycle (Section 5.3)."""
        return 2 * self.k

    @property
    def efficiency(self) -> float:
        return self.flops_per_cycle / self.peak_flops_per_cycle

    def sustained_gflops(self, clock_mhz: float) -> float:
        return self.flops_per_cycle * clock_mhz / 1000.0

    @property
    def io_words(self) -> int:
        return self.words_read + self.words_written

    def words_per_cycle(self) -> float:
        return self.io_words / self.total_cycles

    def memory_bandwidth_gbytes(self, clock_mhz: float,
                                word_bytes: int = 8) -> float:
        return (self.io_words * word_bytes * clock_mhz * 1e6
                / self.total_cycles / 1e9)


class MatrixMultiplyDesign:
    """The linear PE array for dense matrix multiply."""

    def __init__(self, k: int = 8, m: int = 128, alpha_mul: int = 11,
                 alpha_add: int = 14,
                 bram_words: Optional[int] = None,
                 relax_hazard_check: bool = False) -> None:
        """``relax_hazard_check`` waives the m²/k > α requirement.

        Standalone, a C′ cell is touched every m²/k cycles, so the
        Section 5.1 condition is enforced.  The paper's own XD1
        configuration (k = m = 8, Section 6.3) violates it (m²/k = 8 <
        α = 14); inside the hierarchical design this is safe because
        consecutive m-block MACs on one FPGA target *different* C
        blocks (distinct h), so same-cell updates are separated by a
        full block-sweep (≫ α) — the multi-FPGA driver therefore
        constructs its MM units with the check relaxed.  See
        EXPERIMENTS.md for the discrepancy note.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if m % k:
            raise ValueError("m must be a multiple of k")
        if not relax_hazard_check and m * m // k <= alpha_add:
            raise MmHazardError(
                f"m²/k = {m * m // k} must exceed the adder pipeline depth "
                f"{alpha_add} for hazard-free accumulation (Section 5.1)"
            )
        if m * m > m ** 3 // k:
            # C output (m² words at 1 word/cycle) must hide inside one
            # block multiply (m³/k cycles): requires k ≤ m.
            raise ValueError("k must not exceed m (C output cannot overlap)")
        self.k = k
        self.m = m
        self.alpha_mul = alpha_mul
        self.alpha_add = alpha_add
        self.relax_hazard_check = relax_hazard_check
        self.storage_words = 2 * m * m
        if bram_words is not None and self.storage_words > bram_words:
            raise MemoryError(
                f"2m² = {self.storage_words} words exceed on-chip memory "
                f"of {bram_words} words"
            )

    # ------------------------------------------------------------------
    # timing model pieces (validated against strict replay)
    # ------------------------------------------------------------------
    def block_compute_cycles(self) -> int:
        """Effective latency of one m×m block multiply: m³/k."""
        return self.m ** 3 // self.k

    def startup_cycles(self) -> int:
        """Stage 1 for the very first block: load B row 0
        (m · m/k + (k−1) cycles, Section 5.1)."""
        return self.m * (self.m // self.k) + (self.k - 1)

    def drain_cycles(self) -> int:
        """Tail after the last MAC issue: pipelines drain and the last
        C elements traverse the array to PE_0."""
        return (self.alpha_mul + self.alpha_add
                + (self.m * self.m // self.k) * (self.k - 1))

    def required_words_per_cycle(self) -> float:
        """Bandwidth claim of Section 5.1: 3k/m words per cycle
        (two inputs every m/k cycles + m² outputs every m³/k cycles)."""
        return 3 * self.k / self.m

    # ------------------------------------------------------------------
    def run(self, A: np.ndarray, B: np.ndarray,
            strict: bool = False) -> MatrixMultiplyRun:
        """Simulate C = A·B for A p×q and B q×r.

        The array zero-pads both to n×n, n = m·⌈max(p, q, r)/m⌉, and
        counts the padded array's cycles and traffic; C is p×r.  Each
        cell sums its products for z < q from +0.0 in the PE array's
        order (the padded z-steps add only +0.0), in the compiled
        :func:`repro.blas.exact_gemm.kernel`, or in :func:`sweep` when
        no kernel could be built: the same bits either way.
        ``strict=True`` replays each padded block product cycle by
        cycle instead, with hazard checks, and counts the replayed
        cycles."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError("A and B must be p×q and q×r matrices")
        (p, q), r = A.shape, B.shape[1]
        m, k = self.m, self.k
        nb = math.ceil(max(p, q, r) / m)
        n = nb * m

        if strict:
            a_pad = np.zeros((n, n))
            b_pad = np.zeros((n, n))
            a_pad[:p, :q] = A
            b_pad[:q, :r] = B
            C = np.zeros((n, n))
            compute_cycles = 0
            for g in range(nb):
                for h in range(nb):
                    c_block = C[g * m:(g + 1) * m, h * m:(h + 1) * m]
                    for z in range(nb):
                        compute_cycles += self._block_multiply_strict(
                            a_pad[g * m:(g + 1) * m, z * m:(z + 1) * m],
                            b_pad[z * m:(z + 1) * m, h * m:(h + 1) * m],
                            c_block)
            C = C[:p, :r]
        else:
            C = exact_product(A, B)
            compute_cycles = nb ** 3 * self.block_compute_cycles()

        total = (self.startup_cycles() + compute_cycles
                 + self.drain_cycles() + m * m)  # final C block output
        return MatrixMultiplyRun(
            C=C, n=n, m=m, k=k,
            total_cycles=total,
            compute_cycles=compute_cycles,
            words_read=2 * m * m * nb ** 3,
            words_written=m * m * nb ** 2,
            storage_words=self.storage_words,
        )

    # ------------------------------------------------------------------
    def _block_multiply_strict(self, a_blk: np.ndarray, b_blk: np.ndarray,
                               c_block: np.ndarray) -> int:
        """Cycle-by-cycle replay of the PE schedule with hazard checks.

        Element e = z·m + i of A (column-major order) enters PE_0 at
        cycle e·(m/k); PE_p processes element e−p; in sub-cycle ``sub``
        of an element's residence, PE_p multiplies it with its stored
        B element of column sub·k + p and accumulates into C′.
        """
        m, k = self.m, self.k
        sub_cycles = m // k
        last_issue: Dict[Tuple[int, int], int] = {}
        cycle = 0
        total_elements = m * m
        for e in range(total_elements + k - 1):
            for sub in range(sub_cycles):
                cycle += 1
                for p in range(k):
                    ep = e - p
                    if not 0 <= ep < total_elements:
                        continue  # startup/drain skew bubbles
                    z, i = divmod(ep, m)
                    j = sub * k + p
                    cell = (i, j)
                    prev = last_issue.get(cell)
                    if (not self.relax_hazard_check and prev is not None
                            and cycle - prev < self.alpha_add):
                        raise MmHazardError(
                            f"C'[{i},{j}] updated at cycles {prev} and "
                            f"{cycle}, closer than the adder depth "
                            f"{self.alpha_add}"
                        )
                    last_issue[cell] = cycle
                    c_block[i, j] += a_blk[i, z] * b_blk[z, j]
        # The replay includes the (k−1)-element drain skew; the paper's
        # effective latency m³/k counts steady-state throughput.  Return
        # the replayed cycles for exactness.
        return cycle
