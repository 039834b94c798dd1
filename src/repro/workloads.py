"""Synthetic workload generators.

The paper's motivation is scientific computing: linear solvers,
eigenproblems, least squares.  This module generates the matrix and
stream shapes those applications actually produce, used by the test
suite, the benchmark harness and the examples:

* dense operands with controlled conditioning;
* structured sparse matrices (Poisson stencils, banded systems,
  power-law row degrees mimicking irregular meshes — the "irregular
  structure" workloads the paper's SpMXV design targets);
* reduction-circuit input streams keyed to the architectural cases
  (MVM streams, sparse-row streams, adversarial mixes).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.sparse.csr import CsrMatrix


# ----------------------------------------------------------------------
# dense operands
# ----------------------------------------------------------------------
def dense_operands(n: int, rng: np.random.Generator):
    """A pair of n×n dense matrices with standard-normal entries."""
    if n < 1:
        raise ValueError("n must be positive")
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def spd_dense(n: int, rng: np.random.Generator,
              condition: float = 100.0) -> np.ndarray:
    """A symmetric positive-definite matrix with a target condition
    number (log-uniform eigenvalue spread)."""
    if n < 1:
        raise ValueError("n must be positive")
    if condition < 1:
        raise ValueError("condition number must be >= 1")
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigenvalues = np.logspace(0, np.log10(condition), n)
    return (q * eigenvalues) @ q.T


def diagonally_dominant(n: int, rng: np.random.Generator,
                        density: float = 0.1) -> CsrMatrix:
    """A strictly row-diagonally-dominant sparse matrix (Jacobi-safe)."""
    dense = np.where(rng.random((n, n)) < density,
                     rng.standard_normal((n, n)), 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CsrMatrix.from_dense(dense)


# ----------------------------------------------------------------------
# structured sparse matrices
# ----------------------------------------------------------------------
def poisson_2d(grid: int) -> CsrMatrix:
    """Five-point Laplacian on a grid×grid mesh (Dirichlet walls).

    Row i holds, in column order, its north (i − grid), west (i − 1),
    centre (4.0), east (i + 1) and south (i + grid) entries, each
    neighbour masked off at the walls."""
    if grid < 1:
        raise ValueError("grid must be positive")
    n = grid * grid
    node = np.arange(n, dtype=np.int64)
    row, col = np.divmod(node, grid)
    offsets = np.array([-grid, -1, 0, 1, grid], dtype=np.int64)
    present = np.stack([row > 0, col > 0, np.ones(n, dtype=bool),
                        col < grid - 1, row < grid - 1], axis=1)
    stencil = np.where(offsets == 0, 4.0, -1.0)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=row_ptr[1:])
    return CsrMatrix(np.broadcast_to(stencil, present.shape)[present],
                     (node[:, None] + offsets)[present], row_ptr, (n, n))


def banded(n: int, bandwidth: int, rng: np.random.Generator) -> CsrMatrix:
    """A banded matrix with the given half-bandwidth."""
    if bandwidth < 0 or bandwidth >= n:
        raise ValueError("0 <= bandwidth < n required")
    dense = np.zeros((n, n))
    for offset in range(-bandwidth, bandwidth + 1):
        diag = rng.standard_normal(n - abs(offset))
        dense += np.diag(diag, offset)
    return CsrMatrix.from_dense(dense)


def power_law_rows(n: int, rng: np.random.Generator,
                   exponent: float = 2.0,
                   max_degree: int | None = None) -> CsrMatrix:
    """Sparse matrix whose row degrees follow a power law — the
    irregular-mesh shape where short and long rows mix (the workload
    the reduction circuit's arbitrary-set-size support exists for)."""
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    cap = max_degree if max_degree is not None else n
    degrees = np.minimum(
        np.maximum(1, rng.zipf(exponent, size=n)), cap)
    values: List[float] = []
    cols: List[int] = []
    row_ptr = [0]
    for degree in degrees:
        chosen = rng.choice(n, size=int(degree), replace=False)
        for col in sorted(chosen):
            cols.append(int(col))
            values.append(float(rng.standard_normal()))
        row_ptr.append(len(values))
    return CsrMatrix(np.array(values), np.array(cols, dtype=np.int64),
                     np.array(row_ptr, dtype=np.int64), (n, n))


# ----------------------------------------------------------------------
# reduction-circuit streams
# ----------------------------------------------------------------------
def mvm_stream(rows: int, row_length: int,
               rng: np.random.Generator) -> List[List[float]]:
    """The Level-2 workload: back-to-back equal-size sets."""
    if rows < 1 or row_length < 1:
        raise ValueError("rows and row_length must be positive")
    return [list(rng.standard_normal(row_length)) for _ in range(rows)]


def sparse_row_stream(matrix: CsrMatrix, x: Sequence[float]
                      ) -> List[List[float]]:
    """The per-row product sets a SpMXV feeds its reduction circuit."""
    x = np.asarray(x, dtype=np.float64)
    sets = []
    for _, vals, cols in matrix.iter_rows():
        if len(vals):
            sets.append(list(vals * x[cols]))
    return sets


# ----------------------------------------------------------------------
# runtime request streams
# ----------------------------------------------------------------------
#: Default operation mix of :func:`blas_request_mix` — a solver-ish
#: blend: many Level-1/2 calls, a quarter Level-3, some sparse.
DEFAULT_REQUEST_MIX = {"dot": 0.30, "gemv": 0.30, "gemm": 0.25,
                       "spmxv": 0.15}

_DOT_SIZES = (256, 512, 1024, 2048, 4096)
_GEMV_SIZES = (32, 48, 64, 96, 128, 192, 256)
_GEMM_SIZES = (16, 24, 32, 48, 64, 96, 128)
_SPMXV_GRIDS = (8, 10, 12, 16, 20)


def blas_request_mix(count: int, rng: np.random.Generator,
                     mix: dict | None = None,
                     arrival_rate: float | None = None,
                     sizes: dict | None = None):
    """A synthetic stream of runtime requests.

    Returns ``[(arrival_time, BlasRequest), ...]`` — ``count`` requests
    whose operations are drawn from ``mix`` (operation → weight,
    default :data:`DEFAULT_REQUEST_MIX`) over shape grids typical of
    the paper's applications.  ``arrival_rate`` (requests per virtual
    second) spaces arrivals exponentially; ``None`` submits everything
    at t = 0 (a closed batch).  Priorities are drawn from {0, 1, 2}.
    ``sizes`` overrides the per-operation shape grid (operation →
    sequence of sizes; for spmxv the sizes are Poisson grid widths) —
    the chaos harness uses small grids to keep fault storms fast.
    """
    from repro.runtime.job import BlasRequest

    if count < 0:
        raise ValueError("count must be non-negative")
    weights = dict(DEFAULT_REQUEST_MIX if mix is None else mix)
    if not weights or any(w < 0 for w in weights.values()):
        raise ValueError("mix must map operations to non-negative weights")
    size_grid = {"dot": _DOT_SIZES, "gemv": _GEMV_SIZES,
                 "gemm": _GEMM_SIZES, "spmxv": _SPMXV_GRIDS}
    if sizes is not None:
        unknown = set(sizes) - set(size_grid)
        if unknown:
            raise ValueError(f"unknown operation(s) in sizes: "
                             f"{sorted(unknown)}")
        for op, grid in sizes.items():
            grid = tuple(int(s) for s in grid)
            if not grid or any(s < 1 for s in grid):
                raise ValueError(f"sizes[{op!r}] must be a non-empty "
                                 "sequence of positive ints")
            size_grid[op] = grid
    ops = sorted(weights)
    probs = np.array([weights[op] for op in ops], dtype=np.float64)
    if probs.sum() <= 0:
        raise ValueError("mix weights must not all be zero")
    probs /= probs.sum()

    requests = []
    clock = 0.0
    for _ in range(count):
        if arrival_rate is not None:
            clock += float(rng.exponential(1.0 / arrival_rate))
        op = ops[int(rng.choice(len(ops), p=probs))]
        priority = int(rng.integers(0, 3))
        if op == "dot":
            n = int(rng.choice(size_grid["dot"]))
            request = BlasRequest("dot", (rng.standard_normal(n),
                                          rng.standard_normal(n)),
                                  priority=priority)
        elif op == "gemv":
            n = int(rng.choice(size_grid["gemv"]))
            request = BlasRequest("gemv", (rng.standard_normal((n, n)),
                                           rng.standard_normal(n)),
                                  priority=priority)
        elif op == "gemm":
            n = int(rng.choice(size_grid["gemm"]))
            request = BlasRequest("gemm", (rng.standard_normal((n, n)),
                                           rng.standard_normal((n, n))),
                                  priority=priority)
        elif op == "spmxv":
            grid = int(rng.choice(size_grid["spmxv"]))
            matrix = poisson_2d(grid)
            request = BlasRequest(
                "spmxv", (matrix, rng.standard_normal(matrix.ncols)),
                priority=priority)
        else:
            raise ValueError(f"unknown operation {op!r} in mix")
        requests.append((clock, request))
    return requests


#: Default tenant population of :func:`multi_tenant_mix` — three
#: equal-share science groups on one shared chassis.
DEFAULT_TENANTS = {"astro": 1.0, "climate": 1.0, "fusion": 1.0}


def multi_tenant_mix(count: int, rng: np.random.Generator,
                     tenants: dict | None = None,
                     mix: dict | None = None,
                     arrival_rate: float | None = None,
                     sizes: dict | None = None):
    """A multi-tenant request stream for the ``repro.serve`` front-end.

    Returns ``[(arrival_time, tenant, call_spec), ...]`` — like
    :func:`blas_request_mix`, but each request is attributed to a
    tenant drawn from ``tenants`` (name → traffic weight, default
    :data:`DEFAULT_TENANTS`) and described as a JSON-able *call spec*
    (the ``repro analyze`` spec schema plus ``seed``/``priority``)
    instead of a materialized :class:`~repro.runtime.job.BlasRequest`:
    operands travel as a seed, and the server synthesizes them, so the
    wire format stays small and replays stay byte-identical.  For
    ``spmxv`` the spec's ``n`` is the Poisson grid width (the server
    builds :func:`poisson_2d`; the problem order is n²).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    shares = dict(DEFAULT_TENANTS if tenants is None else tenants)
    if not shares or any(w <= 0 for w in shares.values()):
        raise ValueError(
            "tenants must map names to positive traffic weights")
    names = sorted(shares)
    tenant_probs = np.array([shares[name] for name in names],
                            dtype=np.float64)
    tenant_probs /= tenant_probs.sum()
    weights = dict(DEFAULT_REQUEST_MIX if mix is None else mix)
    if not weights or any(w < 0 for w in weights.values()):
        raise ValueError("mix must map operations to non-negative weights")
    # The serve path coalesces gemm by shape, and m²/k must exceed the
    # adder depth: the default grids already satisfy both.
    size_grid = {"dot": _DOT_SIZES, "gemv": _GEMV_SIZES,
                 "gemm": _GEMM_SIZES, "spmxv": _SPMXV_GRIDS}
    if sizes is not None:
        unknown = set(sizes) - set(size_grid)
        if unknown:
            raise ValueError(f"unknown operation(s) in sizes: "
                             f"{sorted(unknown)}")
        for op, grid in sizes.items():
            grid = tuple(int(s) for s in grid)
            if not grid or any(s < 1 for s in grid):
                raise ValueError(f"sizes[{op!r}] must be a non-empty "
                                 "sequence of positive ints")
            size_grid[op] = grid
    ops = sorted(weights)
    probs = np.array([weights[op] for op in ops], dtype=np.float64)
    if probs.sum() <= 0:
        raise ValueError("mix weights must not all be zero")
    probs /= probs.sum()

    stream = []
    clock = 0.0
    for _ in range(count):
        if arrival_rate is not None:
            clock += float(rng.exponential(1.0 / arrival_rate))
        tenant = names[int(rng.choice(len(names), p=tenant_probs))]
        op = ops[int(rng.choice(len(ops), p=probs))]
        spec = {
            "operation": op,
            "n": int(rng.choice(size_grid[op])),
            "seed": int(rng.integers(0, 2**31)),
            "priority": int(rng.integers(0, 3)),
        }
        stream.append((clock, tenant, spec))
    return stream


def gemm_burst(count: int, n: int, rng: np.random.Generator,
               m: int | None = None,
               max_blades: int | None = None):
    """An embarrassingly parallel burst: ``count`` independent gemm
    requests of one shape, all arriving at t = 0 — the workload the
    multi-blade scaling claims are measured on.  ``m`` pins the block
    size (a smaller m raises the b/m gang ceiling — the 12-chassis
    partitioned runs use m = 32 so one gemm can span all 72 blades);
    ``max_blades`` caps each request's gang."""
    from repro.runtime.job import BlasRequest

    if count < 1 or n < 1:
        raise ValueError("count and n must be positive")
    return [(0.0, BlasRequest("gemm", (rng.standard_normal((n, n)),
                                       rng.standard_normal((n, n))),
                              m=m, max_blades=max_blades))
            for _ in range(count)]


def cg_program_stream(count: int, grid: int, rng: np.random.Generator,
                      k_spmxv: int = 4, k_dot: int = 2):
    """``count`` conjugate-gradient descent steps, each one streaming
    :class:`repro.blas.program.BlasProgram` (spmxv → dot with the
    matvec result streamed on-chassis) over the :func:`poisson_2d`
    system of the given grid width, submitted as ``"program"``
    requests at t = 0.  Programs never batch — every step is its own
    pass — so this is the runtime's end-to-end solver workload."""
    from repro.runtime.job import BlasRequest
    from repro.solvers.cg import cg_iteration_program

    if count < 1 or grid < 1:
        raise ValueError("count and grid must be positive")
    matrix = poisson_2d(grid)
    requests = []
    for _ in range(count):
        program = cg_iteration_program(
            matrix, k_spmxv=k_spmxv, k_dot=k_dot)
        program.feed(p=rng.standard_normal(matrix.ncols))
        requests.append(
            (0.0, BlasRequest("program", (program, None), k=k_spmxv)))
    return requests


def adversarial_stream(alpha: int, rng: np.random.Generator,
                       sets: int = 60) -> List[List[float]]:
    """Mixes every size regime the circuit distinguishes: singletons,
    just-below/above α, α-multiples, and > α² folds."""
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    sizes = []
    for _ in range(sets):
        regime = rng.integers(0, 5)
        if regime == 0:
            sizes.append(1)
        elif regime == 1:
            sizes.append(int(rng.integers(max(1, alpha - 1), alpha + 2)))
        elif regime == 2:
            sizes.append(int(alpha * rng.integers(1, 4)))
        elif regime == 3:
            sizes.append(int(rng.integers(1, 2 * alpha)))
        else:
            sizes.append(int(rng.integers(alpha * alpha,
                                          2 * alpha * alpha)))
    return [list(rng.standard_normal(s)) for s in sizes]
