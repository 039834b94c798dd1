"""Extended Level 1 BLAS on the same hardware vocabulary.

The paper presents dot product as the representative Level-1 routine;
a usable BLAS library also ships the other vector kernels.  Each is
expressed with the same components — k-lane pipelined FP units, local
storage, and (where accumulation is needed) the reduction circuit:

* :class:`AxpyDesign` — y ← αx + y: k multiplier+adder lanes, no
  accumulation, trivially hazard-free (independent elements).  Peak
  2k flops/cycle at 3k words/cycle of traffic (read x, read y,
  write y): the most bandwidth-hungry kernel in the library.
* :class:`ScalDesign` — x ← αx: k multipliers, 2k words/cycle.
* :class:`AsumDesign` — Σ|xᵢ|: sign-stripping is free in hardware
  (mask the sign bit), then the adder tree + reduction circuit
  accumulate exactly as in dot product.
* :class:`Nrm2Design` — ‖x‖₂: a dot product of x with itself followed
  by one square root (a pipelined unit of its own; functionally our
  bit-exact softfloat √).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np

from repro.blas.level1 import (
    DotProductDesign,
    DotProductRun,
    TreeDatapath,
    fold_columns,
)
from repro.blas.run import KernelRun
from repro.fparith.softfloat import float_sqrt
from repro.fparith.units import FPUnitSpec

#: A pipelined square-root unit in the spirit of the Table 2 cores
#: (deeply pipelined; area comparable to the divider class of units).
FP_SQRT_64 = FPUnitSpec("fp_sqrt_64", pipeline_stages=28,
                        area_slices=1900, clock_mhz=170.0)


@dataclass
class VectorRun(KernelRun):
    """Outcome of a streaming Level-1 kernel."""

    y: np.ndarray
    n: int
    k: int
    total_cycles: int
    flops: int
    words_read: int
    words_written: int


class AxpyDesign:
    """y ← αx + y with k multiplier+adder lanes."""

    def __init__(self, k: int = 2, alpha_mul: int = 11,
                 alpha_add: int = 14) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.alpha_mul = alpha_mul
        self.alpha_add = alpha_add

    def run(self, alpha: float, x: np.ndarray,
            y: np.ndarray) -> VectorRun:
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape != y.shape:
            raise ValueError("x and y must have equal length")
        n = len(x)
        if n == 0:
            raise ValueError("vectors must be non-empty")
        k = self.k
        groups = math.ceil(n / k)
        out = np.empty(n)
        # Lockstep k-wide pipeline: mult then add, αx_i + y_i per lane.
        latency = self.alpha_mul + self.alpha_add
        pipe: Deque[Optional[Tuple[int, np.ndarray]]] = deque(
            [None] * latency, maxlen=latency)
        cycle = 0
        emitted = 0
        group = 0
        while emitted < groups:
            cycle += 1
            done = pipe.popleft()
            if done is not None:
                g, values = done
                lo = g * k
                out[lo:lo + len(values)] = values
                emitted += 1
            if group < groups:
                lo, hi = group * k, min((group + 1) * k, n)
                pipe.append((group, alpha * x[lo:hi] + y[lo:hi]))
                group += 1
            else:
                pipe.append(None)
        return VectorRun(y=out, n=n, k=k, total_cycles=cycle,
                         flops=2 * n, words_read=2 * n, words_written=n)


class ScalDesign:
    """x ← αx with k multiplier lanes."""

    def __init__(self, k: int = 2, alpha_mul: int = 11) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.alpha_mul = alpha_mul

    def run(self, alpha: float, x: np.ndarray) -> VectorRun:
        x = np.asarray(x, dtype=np.float64).ravel()
        n = len(x)
        if n == 0:
            raise ValueError("vector must be non-empty")
        k = self.k
        groups = math.ceil(n / k)
        out = np.empty(n)
        pipe: Deque[Optional[Tuple[int, np.ndarray]]] = deque(
            [None] * self.alpha_mul, maxlen=self.alpha_mul)
        cycle = 0
        emitted = 0
        group = 0
        while emitted < groups:
            cycle += 1
            done = pipe.popleft()
            if done is not None:
                g, values = done
                lo = g * k
                out[lo:lo + len(values)] = values
                emitted += 1
            if group < groups:
                lo, hi = group * k, min((group + 1) * k, n)
                pipe.append((group, alpha * x[lo:hi]))
                group += 1
            else:
                pipe.append(None)
        return VectorRun(y=out, n=n, k=k, total_cycles=cycle,
                         flops=n, words_read=n, words_written=n)


class AsumDesign(TreeDatapath):
    """Σ|xᵢ| on the dot-product datapath (sign strip is free)."""

    def __init__(self, k: int = 2, alpha_add: int = 14) -> None:
        # |x| masks the sign bit: no multiplier stage ahead of the tree.
        super().__init__(k, alpha_mul=0, alpha_add=alpha_add)

    def run(self, x: np.ndarray) -> DotProductRun:
        x = np.asarray(x, dtype=np.float64).ravel()
        n = len(x)
        if n == 0:
            raise ValueError("vector must be non-empty")
        k = self.k
        groups = math.ceil(n / k)
        # |x|: clear the sign bit — zero-latency in hardware.
        lanes = np.zeros(groups * k)
        np.abs(x, out=lanes[:n])
        values, cycles = self.stream(
            fold_columns(lanes.reshape(groups, k)), (groups,))
        return DotProductRun(result=float(values[0]), n=n, k=k,
                             total_cycles=cycles, input_cycles=groups,
                             flops=n, words_read=groups * k)


@dataclass
class Nrm2Run:
    """Outcome of a 2-norm evaluation."""

    result: float
    n: int
    k: int
    total_cycles: int
    flops: int


class Nrm2Design:
    """‖x‖₂ = √(x·x): the dot-product design plus a sqrt unit."""

    def __init__(self, k: int = 2, alpha_mul: int = 11,
                 alpha_add: int = 14,
                 sqrt_stages: int = FP_SQRT_64.pipeline_stages) -> None:
        self.dot = DotProductDesign(k=k, alpha_mul=alpha_mul,
                                    alpha_add=alpha_add)
        self.k = k
        self.sqrt_stages = sqrt_stages

    def run(self, x: np.ndarray) -> Nrm2Run:
        dot_run = self.dot.run(x, x)
        result = float_sqrt(dot_run.result)
        return Nrm2Run(result=result, n=dot_run.n, k=self.k,
                       total_cycles=dot_run.total_cycles + self.sqrt_stages,
                       flops=dot_run.flops + 1)
